package providers

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzIdentify checks the identification invariants on arbitrary input:
// never panic, the matcher agrees with the regexp-only oracle, any match
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
		slow, sok := oracleIdentify(fqdn)
		if fok != sok {
			t.Fatalf("Identify(%q) ok=%v but the oracle ok=%v", fqdn, fok, sok)
		}
		if fok {
			if fast.ID != slow.ID {
				t.Fatalf("Identify(%q) = %v, the oracle = %v", fqdn, fast.ID, slow.ID)
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

// FuzzIdentifyMatchesTable1 holds the structural checks to the Table 1
// regular expressions they implement. The input is a format index and the
// host bytes; the name is host + "." + DomainSuffix, and the index's
// quotient by NumProviders picks variants of it: bit 0 appends a trailing
// dot, bit 1 upper-cases it, bit 2 appends a newline. For every format,
// Match and Parse's ok must equal the compiled Pattern on the normalised
// name, and Identify and IdentifyRegion must return the one format whose
// Pattern matches.
func FuzzIdentifyMatchesTable1(f *testing.F) {
	// A generated host of every format in every region, so each member of
	// the Google, Kingsoft and IBM alternations is a seed.
	rng := rand.New(rand.NewSource(1))
	for _, in := range All() {
		for _, r := range in.Regions {
			f.Add(uint8(in.ID), strings.TrimSuffix(in.Generate(rng, r), "."+in.DomainSuffix))
		}
	}
	const trailingDot, upper, newline = 1 * numProviders, 2 * numProviders, 4 * numProviders
	for _, s := range []struct {
		idx  ID
		host string
	}{
		// Case, trailing dot and a newline after the whole name.
		{Aliyun + upper, "Resize-Imgsvc-ABCDEFGHIJ.cn-shanghai"},
		{Tencent + trailingDot, "1257651234-h3xkf92a1b-ap-guangzhou"},
		{Google2 + upper + trailingDot, "Hello-X7GK29SLQ1-uc"},
		{AWS + newline, "abc.lambda-url.us-east-1"},
		// Non-ASCII: U+212A KELVIN SIGN lowers to ASCII 'k'; U+0130 does not
		// lower to ASCII.
		{Aliyun, "a-b-abcdefghi\u212a.cn-hangzhou"},
		{Tencent, "1234567890-abcdefghi\u212a-ap-guangzhou"},
		{Kingsoft, "abc-eu-east-1.\u212a"},
		{Google, "us-central1-\u0130"},
		{IBM, "eu-g\u212a"},
		// Invalid UTF-8 inside a span and inside a class.
		{Aliyun, "a-b-abcdefghij.\xff\xfe"},
		{AWS, "\xffx.lambda-url.\xc3"},
		{Google2, "fn-abcdefghi\xff-uc"},
		{Baidu, "a1b2c3d4e5f6g.cfc-execute.\xe2\x84"},
		// A newline inside each format's spans.
		{Aliyun, "a\n-b-abcdefghij.cn"},
		{Aliyun, "a-b-abcdefghij.c\nn"},
		{Baidu, "a1b2c3d4e5f6g.cfc-execute.\n"},
		{Tencent, "1234567890-abcdefghij-ap\n"},
		{Kingsoft, "ab\nc-eu-east-1"},
		{AWS, "x\n.lambda-url.us"},
		{Google, "us-cent\nral1-proj"},
		{Google2, "f\nn-abcdefghij-uc"},
		{Oracle, "aaaaaaaaaz7.\n.functions"},
		{Azure, "my\nsite"},
		// Empty labels and empty spans.
		{Aliyun, "a-b-abcdefghij."},
		{Aliyun, "--abcdefghij."},
		{Aliyun, "-abcdefghij.x"},
		{Baidu, "a1b2c3d4e5f6g.cfc-execute."},
		{Kingsoft, "-eu-east-1"},
		{AWS, ".lambda-url."},
		{AWS, "x.lambda-url"},
		{Google, "us--"},
		{Google, "us-"},
		{Google2, "-abcdefghij-"},
		{Oracle, "aaaaaaaaaz7..functions"},
		{IBM, ""},
		{Azure, ""},
		{Tencent, "."},
	} {
		f.Add(uint8(s.idx), s.host)
	}
	all := NewMatcher(All())
	f.Fuzz(func(t *testing.T, idx uint8, host string) {
		fqdn := host + "." + infos[int(idx)%NumProviders].DomainSuffix
		v := int(idx) / NumProviders
		if v&1 != 0 {
			fqdn += "."
		}
		if v&2 != 0 {
			fqdn = strings.ToUpper(fqdn)
		}
		if v&4 != 0 {
			fqdn += "\n"
		}
		var want *Info
		for _, in := range All() {
			ok := oracleMatch(in, fqdn)
			if got := in.Match(fqdn); got != ok {
				t.Fatalf("%s.Match(%q) = %v, Pattern %q says %v", in.Name, fqdn, got, in.Pattern, ok)
			}
			if _, got := in.Parse(fqdn); got != ok {
				t.Fatalf("%s.Parse(%q) ok = %v, Pattern %q says %v", in.Name, fqdn, got, in.Pattern, ok)
			}
			if ok {
				if want != nil {
					t.Fatalf("%q matches both %s and %s", fqdn, want.Name, in.Name)
				}
				want = in
			}
		}
		if got, ok := all.Identify(fqdn); got != want || ok != (want != nil) {
			t.Fatalf("Identify(%q) = %v, %v; the Patterns say %v", fqdn, got, ok, want)
		}
		if got, _, ok := all.IdentifyRegion(fqdn); got != want || ok != (want != nil) {
			t.Fatalf("IdentifyRegion(%q) = %v, %v; the Patterns say %v", fqdn, got, ok, want)
		}
	})
}
