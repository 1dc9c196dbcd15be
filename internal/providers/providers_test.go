package providers

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d formats, want 10 (Table 1)", len(all))
	}
	if got := len(Collected()); got != 9 {
		t.Errorf("Collected() = %d formats, want 9 (Azure excluded)", got)
	}
	if got := len(Probeable()); got != 6 {
		t.Errorf("Probeable() = %d formats, want 6 (AWS, Google2, Tencent, Baidu, Aliyun, Kingsoft)", got)
	}
	if got := len(PerFunction()); got != 6 {
		t.Errorf("PerFunction() = %d formats, want 6 (Google, IBM, Oracle, Azure excluded)", got)
	}
}

func TestRegionCountsMatchTable2(t *testing.T) {
	want := map[ID]int{
		Aliyun: 21, Baidu: 3, Tencent: 22, Kingsoft: 2, AWS: 22,
		Google: 37, Google2: 37, IBM: 6, Oracle: 5,
	}
	for id, n := range want {
		if got := len(Get(id).Regions); got != n {
			t.Errorf("%s: %d regions, want %d (Table 2)", id, got, n)
		}
	}
}

func TestLaunchYears(t *testing.T) {
	want := map[ID]int{
		Aliyun: 2017, Baidu: 2017, Tencent: 2017, Kingsoft: 2022, AWS: 2014,
		Google: 2017, Google2: 2022, IBM: 2016, Oracle: 2019, Azure: 2016,
	}
	for id, y := range want {
		if got := Get(id).LaunchYear; got != y {
			t.Errorf("%s launch year = %d, want %d", id, got, y)
		}
	}
}

// TestTable1Examples checks each pattern against a hand-built example of the
// documented format, mirroring the empirical validation in paper §3.1.
func TestTable1Examples(t *testing.T) {
	cases := []struct {
		id   ID
		fqdn string
	}{
		{Aliyun, "resize-imgsvc-abcdefghij.cn-shanghai.fcapp.run"},
		{Baidu, "a1b2c3d4e5f6g.cfc-execute.bj.baidubce.com"},
		{Tencent, "1257651234-h3xkf92a1b-ap-guangzhou.scf.tencentcs.com"},
		{Kingsoft, "fj3k29dksl2a-cn-beijing-6.ksyuncf.com"},
		{AWS, "h2ag4fmzrlwqify7rz2jak4mhi3lmytz.lambda-url.us-east-1.on.aws"},
		{Google, "us-central1-myproject.cloudfunctions.net"},
		{Google2, "hello-world-x7gk29slq1-uc.a.run.app"},
		{IBM, "eu-gb.functions.appdomain.cloud"},
		{Oracle, "aaaaaaaaaz7.ap-tokyo-1.functions.oci.oraclecloud.com"},
		{Azure, "mysite.azurewebsites.net"},
	}
	for _, c := range cases {
		in := Get(c.id)
		if !in.Match(c.fqdn) {
			t.Errorf("%s: pattern %q does not match example %q", in.Name, in.Pattern, c.fqdn)
		}
	}
}

func TestPatternsRejectForeignDomains(t *testing.T) {
	nonFunctions := []string{
		"www.google.com", "example.org", "fcapp.run", "on.aws",
		"foo.scf.tencentcs.com",        // missing userid-random-region shape
		"abc.cfc-execute.baidubce.com", // random too short / missing region
		"x.y.cloudfunctions.net",       // no continent prefix
		"something.azurewebsites.net.evil.io",
		"lambda-url.us-east-1.on.aws",             // no random prefix label
		"deep.us-south.functions.appdomain.cloud", // IBM takes region only
	}
	m := NewMatcher(All())
	for _, d := range nonFunctions {
		if in, ok := m.Identify(d); ok && in.ID != Azure {
			t.Errorf("Identify(%q) = %s, want no match", d, in.Name)
		}
	}
}

// TestGenerateRoundTrip is the core invariant of the identification pipeline:
// every generated domain must (a) match its own provider's pattern, (b) match
// no other provider's pattern, and (c) parse back to the region it was
// generated in.
func TestGenerateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatcher(All())
	for _, in := range All() {
		for i := 0; i < 200; i++ {
			region := in.Regions[rng.Intn(len(in.Regions))]
			dom := in.Generate(rng, region)
			got, ok := m.Identify(dom)
			if !ok {
				t.Fatalf("%s: generated domain %q not identified", in.Name, dom)
			}
			if got.ID != in.ID {
				t.Fatalf("%s: generated domain %q identified as %s", in.Name, dom, got.Name)
			}
			for _, other := range All() {
				if other.ID != in.ID && other.Match(dom) {
					t.Errorf("%s domain %q also matches %s pattern", in.Name, dom, other.Name)
				}
			}
			p, ok := in.Parse(dom)
			if !ok {
				t.Fatalf("%s: Parse(%q) failed", in.Name, dom)
			}
			wantRegion := region
			if in.ID == Google2 {
				wantRegion = compactGoogleRegion(region)
			}
			if in.usesRegion() && p.Region != wantRegion {
				t.Errorf("%s: Parse(%q).Region = %q, want %q", in.Name, dom, p.Region, wantRegion)
			}
		}
	}
}

func TestParseComponents(t *testing.T) {
	p, ok := Get(Tencent).Parse("1257651234-h3xkf92a1b-ap-guangzhou.scf.tencentcs.com")
	if !ok {
		t.Fatal("Tencent parse failed")
	}
	if p.UserID != "1257651234" || p.Random != "h3xkf92a1b" || p.Region != "ap-guangzhou" {
		t.Errorf("Tencent parse = %+v", p)
	}

	p, ok = Get(Aliyun).Parse("resize-imgsvc-abcdefghij.cn-shanghai.fcapp.run")
	if !ok {
		t.Fatal("Aliyun parse failed")
	}
	if p.FunctionName != "resize" || p.ProjectName != "imgsvc" || p.Region != "cn-shanghai" {
		t.Errorf("Aliyun parse = %+v", p)
	}

	p, ok = Get(Google).Parse("us-central1-myproject.cloudfunctions.net")
	if !ok {
		t.Fatal("Google parse failed")
	}
	if p.Region != "us-central1" || p.ProjectName != "myproject" {
		t.Errorf("Google parse = %+v", p)
	}

	p, ok = Get(AWS).Parse("h2ag4fmzrlwqify7rz2jak4mhi3lmytz.lambda-url.eu-west-1.on.aws")
	if !ok {
		t.Fatal("AWS parse failed")
	}
	if p.Random != "h2ag4fmzrlwqify7rz2jak4mhi3lmytz" || p.Region != "eu-west-1" {
		t.Errorf("AWS parse = %+v", p)
	}
}

func TestMatcherNormalization(t *testing.T) {
	m := NewMatcher(nil)
	variants := []string{
		"1257651234-h3xkf92a1b-ap-guangzhou.scf.tencentcs.com",
		"1257651234-h3xkf92a1b-ap-guangzhou.scf.tencentcs.com.", // trailing dot
		"1257651234-H3XKF92A1B-ap-guangzhou.SCF.TencentCS.com",  // case
	}
	for _, v := range variants {
		in, ok := m.Identify(v)
		if !ok || in.ID != Tencent {
			t.Errorf("Identify(%q): got %v ok=%v, want Tencent", v, in, ok)
		}
	}
}

// TestMatcherAgreesWithSlowPath compares the matcher with the regexp-only
// oracle, each Table 1 Pattern in turn without the suffix dispatch.
func TestMatcherAgreesWithSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatcher(nil)
	// Generated function domains plus structured junk.
	var domains []string
	for _, in := range Collected() {
		for i := 0; i < 50; i++ {
			domains = append(domains, in.Generate(rng, ""))
		}
	}
	junk := []string{"example.com", "a.b.c.d.e", "scf.tencentcs.com", "x.on.aws", ""}
	domains = append(domains, junk...)
	for _, d := range domains {
		fast, fok := m.Identify(d)
		slow, sok := oracleIdentify(d)
		if fok != sok {
			t.Fatalf("Identify(%q) ok=%v, the oracle ok=%v", d, fok, sok)
		}
		if fok && fast.ID != slow.ID {
			t.Fatalf("Identify(%q) = %s, the oracle = %s", d, fast.Name, slow.Name)
		}
	}
}

func TestChinaRegion(t *testing.T) {
	yes := []string{"cn-shanghai", "ap-beijing", "bj", "gz", "su", "chinanorth", "cn-beijing-6"}
	no := []string{"us-east-1", "eu-west-1", "ap-tokyo", "ap-singapore", "us-central1", "eu-gb"}
	for _, r := range yes {
		if !ChinaRegion(r) {
			t.Errorf("ChinaRegion(%q) = false, want true", r)
		}
	}
	for _, r := range no {
		if ChinaRegion(r) {
			t.Errorf("ChinaRegion(%q) = true, want false", r)
		}
	}
}

func TestByName(t *testing.T) {
	for _, in := range All() {
		got, ok := ByName(strings.ToUpper(in.Name))
		if !ok || got.ID != in.ID {
			t.Errorf("ByName(%q) failed", in.Name)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName(nosuch) unexpectedly succeeded")
	}
}

func TestURLFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range All() {
		spec := Spec{
			FunctionName: "hello", ProjectName: "proj",
			UserID: "1234567890",
			Region: in.Regions[0],
			Random: in.RandomToken(rng),
		}
		u, err := in.URL(spec)
		if err != nil {
			t.Fatalf("%s: URL: %v", in.Name, err)
		}
		if !strings.HasPrefix(u, "https://") {
			t.Errorf("%s: URL %q not https", in.Name, u)
		}
		host := strings.TrimPrefix(u, "https://")
		host = host[:strings.IndexAny(host, "/?")]
		if !in.Match(host) {
			t.Errorf("%s: URL host %q does not match own pattern", in.Name, host)
		}
	}
}

func TestDomainValidation(t *testing.T) {
	if _, err := Get(Tencent).Domain(Spec{UserID: "abc", Random: "xxxxxxxxxx", Region: "ap-guangzhou"}); err == nil {
		t.Error("Tencent accepted non-numeric UserID")
	}
	if _, err := Get(Aliyun).Domain(Spec{Random: "abcdefghij", Region: "cn-shanghai"}); err == nil {
		t.Error("Aliyun accepted empty FName/PName")
	}
	if _, err := Get(AWS).Domain(Spec{Random: "x"}); err == nil {
		t.Error("AWS accepted empty region")
	}
}

// Property: random lowercase-alnum strings never spuriously match providers
// with strict shapes (Tencent, Baidu, Oracle) unless crafted to.
func TestQuickNoSpuriousStrictMatches(t *testing.T) {
	f := func(label string) bool {
		d := sanitizeLabel(label)
		if d == "" {
			d = "x"
		}
		fqdn := d + ".example.com"
		m := NewMatcher(nil)
		_, ok := m.Identify(fqdn)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		"Hello World": "hello-world",
		"--a--":       "a",
		"UPPER_case9": "upper-case9",
		"":            "",
		"日本":          "",
	}
	for in, want := range cases {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
