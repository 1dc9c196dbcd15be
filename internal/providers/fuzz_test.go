package providers

import (
	"strings"
	"testing"
)

// FuzzIdentify checks the identification invariants on arbitrary input:
// never panic, fast-path agrees with the regex-only path, any match
// round-trips through Parse, and IdentifyRegion's one-match region is
// Identify + Parse().Region.
func FuzzIdentify(f *testing.F) {
	f.Add("1234567890-abcdefghij-ap-guangzhou.scf.tencentcs.com")
	f.Add("h2ag4fmzrlwqify7rz2jak4mhi3lmytz.lambda-url.us-east-1.on.aws")
	f.Add("us-central1-myproject.cloudfunctions.net")
	f.Add("www.example.com")
	f.Add("")
	f.Add("..")
	f.Add(strings.Repeat("a.", 100))
	f.Add("x.ON.AWS.")
	f.Add("a-b-abcdefghij.cn-hangzhou.fcapp.run")
	f.Add("a-b-abcdefghij.\u00c4.fcapp.run")
	f.Add("abc-eu-east-1.\u212asyuncf.com")
	f.Add("1234567890-abcdefghij-\u0130.scf.tencentcs.com")
	m := NewMatcher(nil)
	f.Fuzz(func(t *testing.T, fqdn string) {
		fast, fok := m.Identify(fqdn)
		slow, sok := m.IdentifySlow(fqdn)
		if fok != sok {
			t.Fatalf("Identify(%q) ok=%v but IdentifySlow ok=%v", fqdn, fok, sok)
		}
		if fok {
			if fast.ID != slow.ID {
				t.Fatalf("Identify(%q) = %v, IdentifySlow = %v", fqdn, fast.ID, slow.ID)
			}
			if _, ok := fast.Parse(fqdn); !ok {
				t.Fatalf("matched %q does not parse", fqdn)
			}
		}
		in, region, ok := m.IdentifyRegion(fqdn)
		if ok != fok || in != fast {
			t.Fatalf("IdentifyRegion(%q) = %v, %v; Identify = %v, %v", fqdn, in, ok, fast, fok)
		}
		want := ""
		if fok {
			p, _ := fast.Parse(fqdn)
			want = p.Region
		}
		if region != want {
			t.Fatalf("IdentifyRegion(%q) region = %q, want %q", fqdn, region, want)
		}
	})
}
