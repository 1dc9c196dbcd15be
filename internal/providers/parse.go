package providers

import (
	"strings"
)

// Parsed holds the components recovered from a function FQDN. Components the
// provider's format does not embed are left empty.
type Parsed struct {
	Provider     ID
	FunctionName string
	ProjectName  string
	UserID       string
	Region       string
	Random       string
}

// Parse decomposes a function FQDN previously matched by this provider's
// pattern. It returns ok=false if the FQDN does not match.
func (in *Info) Parse(fqdn string) (Parsed, bool) {
	fqdn = normalizeFQDN(fqdn)
	if !in.matches(fqdn) {
		return Parsed{}, false
	}
	p := Parsed{Provider: in.ID}
	host := strings.TrimSuffix(fqdn, "."+in.DomainSuffix)
	switch in.ID {
	case Aliyun:
		// [FName]-[PName]-[Random].[Region]
		dot := strings.LastIndexByte(host, '.')
		if dot < 0 {
			return Parsed{}, false
		}
		p.Region = host[dot+1:]
		prefix := host[:dot]
		// Random is the trailing 10-letter token.
		if len(prefix) < 12 {
			return Parsed{}, false
		}
		p.Random = prefix[len(prefix)-10:]
		rest := strings.TrimSuffix(prefix[:len(prefix)-10], "-")
		if i := strings.LastIndexByte(rest, '-'); i >= 0 {
			p.FunctionName, p.ProjectName = rest[:i], rest[i+1:]
		} else {
			p.FunctionName = rest
		}
	case Baidu:
		// [Random].cfc-execute.[Region]
		parts := strings.SplitN(host, ".", 3)
		if len(parts) != 3 {
			return Parsed{}, false
		}
		p.Random, p.Region = parts[0], parts[2]
	case Tencent:
		// [UserID]-[Random]-[Region]
		if len(host) < 22 {
			return Parsed{}, false
		}
		p.UserID = host[:10]
		p.Random = host[11:21]
		p.Region = host[22:]
	case Kingsoft:
		// [Random]-[Region] where Region is a fixed enum.
		for _, r := range in.Regions {
			if strings.HasSuffix(host, "-"+r) {
				p.Region = r
				p.Random = strings.TrimSuffix(host, "-"+r)
				break
			}
		}
	case AWS:
		// [Random].lambda-url.[Region]
		parts := strings.SplitN(host, ".", 3)
		if len(parts) != 3 {
			return Parsed{}, false
		}
		p.Random, p.Region = parts[0], parts[2]
	case Google:
		// [Region]-[PName] where Region is a known gen-1 region id.
		for _, r := range in.Regions {
			if strings.HasPrefix(host, r+"-") {
				p.Region = r
				p.ProjectName = host[len(r)+1:]
				break
			}
		}
		if p.Region == "" {
			// The Table 1 regex only pins the continent prefix; keep the
			// first two labels as a best-effort region.
			if i := strings.IndexByte(host, '-'); i >= 0 {
				if j := strings.IndexByte(host[i+1:], '-'); j >= 0 {
					p.Region = host[:i+1+j]
					p.ProjectName = host[i+j+2:]
				}
			}
		}
	case Google2:
		// [FName]-[Random]-[Region]
		// Random is a 10-char alnum token; find it from the right so that
		// hyphens in FName do not confuse the split.
		labels := strings.Split(host, "-")
		for i := len(labels) - 2; i >= 1; i-- {
			if len(labels[i]) == 10 && isLowerAlnum(labels[i]) {
				p.FunctionName = strings.Join(labels[:i], "-")
				p.Random = labels[i]
				p.Region = strings.Join(labels[i+1:], "-")
				break
			}
		}
	case IBM:
		p.Region = host
	case Oracle:
		// [Random].[Region].functions
		parts := strings.SplitN(host, ".", 3)
		if len(parts) != 3 {
			return Parsed{}, false
		}
		p.Random, p.Region = parts[0], parts[1]
	case Azure:
		p.ProjectName = host
	}
	return p, true
}
