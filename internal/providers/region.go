package providers

import (
	"strings"
)

// matches reports whether the normalised fqdn matches in's anchored Table 1
// Pattern, deciding exactly what that regular expression decides without
// running it (DESIGN #37; FuzzIdentifyMatchesTable1 holds the two equal):
//   - A `.*` span matches any bytes except '\n': Go's `.` excludes only the
//     newline, and reads an invalid UTF-8 byte as U+FFFD, which it matches.
//     Every byte of a name lies in a span or a non-newline literal, so one
//     newline anywhere rules the name out.
//   - The classes [a-z], [a-z0-9], [0-9] and every literal are ASCII, and an
//     ASCII byte is always a whole rune to Go's UTF-8 decoder, so byte-wise
//     tests equal the regexp's rune-wise ones.
//   - A `.*` between fixed parts only asks whether some split exists, so
//     each case looks for its anchor once instead of backtracking.
func (in *Info) matches(fqdn string) bool {
	if strings.IndexByte(fqdn, '\n') >= 0 {
		return false
	}
	switch in.ID {
	case Aliyun:
		// ^(.*)-(.*)-[a-z]{10}\.(.*)\.fcapp\.run$: some '.' has ten letters
		// and a '-' before it, and another '-' lies further left.
		h, ok := strings.CutSuffix(fqdn, ".fcapp.run")
		first := strings.IndexByte(h, '-')
		if !ok || first < 0 {
			return false
		}
		for dot := first + 12; dot < len(h); dot++ {
			if h[dot] == '.' && h[dot-11] == '-' && isLower(h[dot-10:dot]) {
				return true
			}
		}
		return false
	case Baidu:
		// ^[a-z0-9]{13}\.cfc-execute\.(.*)\.baidubce\.com$
		h, ok := strings.CutSuffix(fqdn, ".baidubce.com")
		return ok && len(h) >= 26 && isLowerAlnum(h[:13]) && h[13:26] == ".cfc-execute."
	case Tencent:
		// ^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$
		h, ok := strings.CutSuffix(fqdn, ".scf.tencentcs.com")
		return ok && len(h) >= 22 && isDigits(h[:10]) && h[10] == '-' &&
			isLowerAlnum(h[11:21]) && h[21] == '-'
	case Kingsoft:
		// ^(.*)-(eu-east-1|cn-beijing-6)\.ksyuncf\.com$
		h, ok := strings.CutSuffix(fqdn, ".ksyuncf.com")
		return ok && (strings.HasSuffix(h, "-eu-east-1") || strings.HasSuffix(h, "-cn-beijing-6"))
	case AWS:
		// ^(.*)\.lambda-url\.(.*)\.on\.aws$
		h, ok := strings.CutSuffix(fqdn, ".on.aws")
		return ok && strings.Contains(h, ".lambda-url.")
	case Google:
		// ^(asia|europe|us|australia|northamerica|southamerica)-(.*)-(.*)\.cloudfunctions\.net$:
		// no member has a '-', so a member prefix ends at the first '-'.
		h, ok := strings.CutSuffix(fqdn, ".cloudfunctions.net")
		i := strings.IndexByte(h, '-')
		if !ok || i < 0 {
			return false
		}
		switch h[:i] {
		case "asia", "europe", "us", "australia", "northamerica", "southamerica":
			return strings.IndexByte(h[i+1:], '-') >= 0
		}
		return false
	case Google2:
		// ^(.*)-[a-z0-9]{10}-(.*)\.a\.run\.app$: some '-' is followed by ten
		// [a-z0-9] bytes and another '-'.
		h, ok := strings.CutSuffix(fqdn, ".a.run.app")
		if !ok {
			return false
		}
		_, ok = google2Region(h)
		return ok
	case IBM:
		// ^(us-south|us-east|eu-gb|eu-de|jp-tok|au-syd)\.functions\.appdomain\.cloud$
		h, ok := strings.CutSuffix(fqdn, ".functions.appdomain.cloud")
		if !ok {
			return false
		}
		switch h {
		case "us-south", "us-east", "eu-gb", "eu-de", "jp-tok", "au-syd":
			return true
		}
		return false
	case Oracle:
		// ^[a-z0-9]{11}\.(.*)\.functions\.oci\.oraclecloud\.com$
		h, ok := strings.CutSuffix(fqdn, ".functions.oci.oraclecloud.com")
		return ok && len(h) >= 12 && isLowerAlnum(h[:11]) && h[11] == '.'
	case Azure:
		// ^(.*)\.azurewebsites\.net$
		return strings.HasSuffix(fqdn, ".azurewebsites.net")
	default:
		return false
	}
}

// Byte classes of the Table 1 patterns, as bits of byteClass.
const (
	classLower uint8 = 1 << iota // [a-z]
	classDigit                   // [0-9]
)

// byteClass maps every byte value to its class bits, so a class test is
// one load and a mask instead of two range comparisons.
var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= classLower
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= classDigit
	}
	return t
}()

// allIn reports whether every byte of s has one of the class bits.
func allIn(s string, class uint8) bool {
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]]&class == 0 {
			return false
		}
	}
	return true
}

// isLower reports whether every byte of s is in [a-z].
func isLower(s string) bool { return allIn(s, classLower) }

// isDigits reports whether every byte of s is in [0-9].
func isDigits(s string) bool { return allIn(s, classDigit) }

// isLowerAlnum reports whether s is non-empty and every byte is in [a-z0-9].
func isLowerAlnum(s string) bool { return len(s) > 0 && allIn(s, classLower|classDigit) }

// matchRegion is matches plus regionOf. Google2 reads its region off the
// match itself, so one scan decides both; the other formats run the two in
// turn.
func (in *Info) matchRegion(fqdn string) (string, bool) {
	if in.ID == Google2 {
		h, ok := strings.CutSuffix(fqdn, ".a.run.app")
		if !ok || strings.IndexByte(fqdn, '\n') >= 0 {
			return "", false
		}
		return google2Region(h)
	}
	if !in.matches(fqdn) {
		return "", false
	}
	return in.regionOf(fqdn), true
}

// google2Region scans a Google2 host ([FName]-[Random]-[Region]) right to
// left for its rightmost interior '-'-delimited token of ten [a-z0-9]
// bytes and returns what follows it, a suffix of host, so no Join. ok is false when
// there is no such token, which is exactly when `(.*)-[a-z0-9]{10}-(.*)`
// fails: ten class bytes between two '-' contain no '-', so they form a
// whole token.
func google2Region(host string) (region string, ok bool) {
	end := strings.LastIndexByte(host, '-')
	for end > 0 {
		start := strings.LastIndexByte(host[:end], '-') + 1
		if start == 0 {
			break
		}
		if end-start == 10 && isLowerAlnum(host[start:end]) {
			return host[end+1:], true
		}
		end = start - 1
	}
	return "", false
}

// regionOf returns the region component of a normalised function FQDN that
// in's pattern has already matched, or "" when the format does not embed
// one: exactly Parse(fqdn).Region, pinned by TestRegionMatchesParse.
// It only ever returns substrings of its input, so the aggregation hot path
// resolves regions without Parse's per-component allocations. Google2's
// region comes from matchRegion's scan instead.
func (in *Info) regionOf(fqdn string) string {
	host := trimDotSuffix(fqdn, in.DomainSuffix)
	switch in.ID {
	case Aliyun:
		// [FName]-[PName]-[Random].[Region]
		dot := strings.LastIndexByte(host, '.')
		if dot < 0 || len(host[:dot]) < 12 {
			return ""
		}
		return host[dot+1:]
	case Baidu, AWS:
		// [Random].cfc-execute.[Region] / [Random].lambda-url.[Region]
		return afterNthDot(host, 2)
	case Tencent:
		// [UserID]-[Random]-[Region]
		if len(host) < 22 {
			return ""
		}
		return host[22:]
	case Kingsoft:
		// [Random]-[Region] where Region is a fixed enum.
		for _, r := range in.Regions {
			if n := len(host) - len(r); n > 0 && host[n-1] == '-' && host[n:] == r {
				return r
			}
		}
		return ""
	case Google:
		// [Region]-[PName] with Region a known gen-1 region id, falling
		// back to the first two labels like Parse does.
		for _, r := range in.Regions {
			if len(host) > len(r) && host[len(r)] == '-' && host[:len(r)] == r {
				return r
			}
		}
		if i := strings.IndexByte(host, '-'); i >= 0 {
			if j := strings.IndexByte(host[i+1:], '-'); j >= 0 {
				return host[:i+1+j]
			}
		}
		return ""
	case IBM:
		return host
	case Oracle:
		// [Random].[Region].functions
		return betweenDots(host)
	default: // Azure and any future format without an embedded region
		return ""
	}
}

// trimDotSuffix removes "."+suffix from the end of s without building the
// concatenated needle.
func trimDotSuffix(s, suffix string) string {
	n := len(s) - len(suffix)
	if n > 0 && s[n-1] == '.' && s[n:] == suffix {
		return s[:n-1]
	}
	return s
}

// afterNthDot returns the substring after the n-th '.', or "" when s has
// fewer dots — mirroring the SplitN arity checks in Parse.
func afterNthDot(s string, n int) string {
	for ; n > 0; n-- {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return ""
		}
		s = s[i+1:]
	}
	return s
}

// betweenDots returns the substring between the first and second '.', or ""
// when s has fewer than two dots.
func betweenDots(s string) string {
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return ""
	}
	rest := s[i+1:]
	j := strings.IndexByte(rest, '.')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
