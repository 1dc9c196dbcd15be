// Package providers defines the serverless cloud function providers studied
// in the paper, together with their function-URL formats, the domain regular
// expressions used to identify function FQDNs in passive DNS data, and
// helpers to generate and parse function domains (paper §3.1, Table 1).
//
// The registry covers nine providers and ten URL formats: Google ships two
// generations ("Google" and "Google2"). Azure is registered for completeness
// but excluded from PDNS collection because its domain suffix
// (azurewebsites.net) is shared with non-function web apps; Google, IBM and
// Oracle are excluded from active probing because the function identifier
// lives in the URL path, which PDNS does not observe.
package providers

import (
	"fmt"
	"strings"
)

// ID identifies one function-URL format. Google has two IDs because its two
// generations use unrelated domain schemes.
type ID int

// Provider IDs, in the order of the paper's Table 1.
const (
	Aliyun ID = iota
	Baidu
	Tencent
	Kingsoft
	AWS
	Google
	Google2
	IBM
	Oracle
	Azure
	numProviders
)

// NumProviders is the number of registered URL formats (ten: nine providers,
// with Google counted twice for its two generations).
const NumProviders = int(numProviders)

// String returns the short provider name used throughout the paper's tables.
func (id ID) String() string {
	if id < 0 || id >= numProviders {
		return fmt.Sprintf("providers.ID(%d)", int(id))
	}
	return infos[id].Name
}

// GenerationMode describes how a provider exposes the function URL at
// creation time (Table 1, "Generation Mode").
type GenerationMode int

const (
	// Automatic providers mint the function URL when the function is created.
	Automatic GenerationMode = iota
	// Optional providers let the developer enable a function URL at setup.
	Optional
	// Manual providers require a separately created HTTP trigger.
	Manual
)

func (m GenerationMode) String() string {
	switch m {
	case Automatic:
		return "Automatic"
	case Optional:
		return "Optional"
	case Manual:
		return "Manual"
	default:
		return fmt.Sprintf("GenerationMode(%d)", int(m))
	}
}

// Info is the static description of one function-URL format.
type Info struct {
	ID         ID
	Name       string // short name used in tables ("Aliyun", "Google2", …)
	Product    string // full product name
	LaunchYear int

	// URLPrefix is the human-readable USER-Prefix template from Table 1,
	// e.g. "[FName]-[PName]-[Random].[Region]".
	URLPrefix string
	// DomainSuffix identifies the provider, e.g. "scf.tencentcs.com".
	DomainSuffix string
	// PathTemplate is the Path column of Table 1 ("/", "[FName]", …).
	PathTemplate string

	// Pattern is the domain regular expression of Table 1 (anchored). It is
	// the definition of the format: matching implements it with one
	// structural check per format (matches), and the tests compile it as
	// that check's oracle (DESIGN #37).
	Pattern string

	Mode GenerationMode

	// InCollection reports whether the provider participates in PDNS
	// identification. False only for Azure (shared suffix).
	InCollection bool
	// ActiveProbe reports whether root-path HTTP probing is meaningful.
	// False for providers whose function identifier is in the URL path
	// (Google gen-1, IBM, Oracle) and for Azure.
	ActiveProbe bool
	// UniqueFunctionDomain reports whether one FQDN maps to exactly one
	// cloud function, enabling per-function invocation/lifespan analysis.
	UniqueFunctionDomain bool
	// WildcardDNS reports whether the provider keeps a wildcard record for
	// the suffix so deleted functions still resolve. Tencent is the only
	// provider without wildcard resolution (paper §4.4).
	WildcardDNS bool

	// Regions supported by the provider, as embedded in function domains.
	Regions []string
}

// Match reports whether fqdn matches this provider's domain pattern.
// Matching is case-insensitive on the suffix, per DNS semantics.
func (in *Info) Match(fqdn string) bool {
	return in.matches(normalizeFQDN(fqdn))
}

var infos = [numProviders]Info{
	Aliyun: {
		ID:           Aliyun,
		Name:         "Aliyun",
		Product:      "Aliyun Function Compute",
		LaunchYear:   2017,
		URLPrefix:    "[FName]-[PName]-[Random].[Region]",
		DomainSuffix: "fcapp.run",
		PathTemplate: "/",
		Pattern:      `^(.*)-(.*)-[a-z]{10}\.(.*)\.fcapp\.run$`,
		Mode:         Automatic,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true, WildcardDNS: true,
		Regions: aliyunRegions,
	},
	Baidu: {
		ID:           Baidu,
		Name:         "Baidu",
		Product:      "Baidu Cloud Function Compute",
		LaunchYear:   2017,
		URLPrefix:    "[Random].cfc-execute.[Region]",
		DomainSuffix: "baidubce.com",
		PathTemplate: "/",
		Pattern:      `^[a-z0-9]{13}\.cfc-execute\.(.*)\.baidubce\.com$`,
		Mode:         Manual,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true, WildcardDNS: true,
		Regions: baiduRegions,
	},
	Tencent: {
		ID:           Tencent,
		Name:         "Tencent",
		Product:      "Tencent Serverless Cloud Function",
		LaunchYear:   2017,
		URLPrefix:    "[UserID]-[Random]-[Region]",
		DomainSuffix: "scf.tencentcs.com",
		PathTemplate: "/",
		Pattern:      `^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$`,
		Mode:         Automatic,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true,
		WildcardDNS: false, // only provider without wildcard resolution (§4.4)
		Regions:     tencentRegions,
	},
	Kingsoft: {
		ID:           Kingsoft,
		Name:         "Ksyun",
		Product:      "Kingsoft Cloud Function",
		LaunchYear:   2022,
		URLPrefix:    "[Random].[Region]",
		DomainSuffix: "ksyuncf.com",
		PathTemplate: "/",
		Pattern:      `^(.*)-(eu-east-1|cn-beijing-6)\.ksyuncf\.com$`,
		Mode:         Optional,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true, WildcardDNS: true,
		Regions: kingsoftRegions,
	},
	AWS: {
		ID:           AWS,
		Name:         "AWS",
		Product:      "AWS Lambda",
		LaunchYear:   2014,
		URLPrefix:    "[Random].lambda-url.[Region]",
		DomainSuffix: "on.aws",
		PathTemplate: "/",
		Pattern:      `^(.*)\.lambda-url\.(.*)\.on\.aws$`,
		Mode:         Optional,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true, WildcardDNS: true,
		Regions: awsRegions,
	},
	Google: {
		ID:           Google,
		Name:         "Google",
		Product:      "Google Cloud Function",
		LaunchYear:   2017,
		URLPrefix:    "[Region]-[PName]",
		DomainSuffix: "cloudfunctions.net",
		PathTemplate: "[FName]",
		Pattern:      `^(asia|europe|us|australia|northamerica|southamerica)-(.*)-(.*)\.cloudfunctions\.net$`,
		Mode:         Optional,
		InCollection: true, ActiveProbe: false, UniqueFunctionDomain: false, WildcardDNS: true,
		Regions: googleRegions,
	},
	Google2: {
		ID:           Google2,
		Name:         "Google2",
		Product:      "Google Cloud Function (2nd gen)",
		LaunchYear:   2022,
		URLPrefix:    "[FName]-[Random]-[Region]",
		DomainSuffix: "a.run.app",
		PathTemplate: "/",
		Pattern:      `^(.*)-[a-z0-9]{10}-(.*)\.a\.run\.app$`,
		Mode:         Optional,
		InCollection: true, ActiveProbe: true, UniqueFunctionDomain: true, WildcardDNS: true,
		Regions: googleRegions,
	},
	IBM: {
		ID:           IBM,
		Name:         "IBM",
		Product:      "IBM Cloud Function",
		LaunchYear:   2016,
		URLPrefix:    "[Region]",
		DomainSuffix: "functions.appdomain.cloud",
		PathTemplate: ".../[FName]",
		Pattern:      `^(us-south|us-east|eu-gb|eu-de|jp-tok|au-syd)\.functions\.appdomain\.cloud$`,
		Mode:         Automatic,
		InCollection: true, ActiveProbe: false, UniqueFunctionDomain: false, WildcardDNS: true,
		Regions: ibmRegions,
	},
	Oracle: {
		ID:           Oracle,
		Name:         "Oracle",
		Product:      "Oracle Cloud Functions",
		LaunchYear:   2019,
		URLPrefix:    "[Random].[Region]",
		DomainSuffix: "oci.oraclecloud.com",
		PathTemplate: ".../[FName]",
		Pattern:      `^[a-z0-9]{11}\.(.*)\.functions\.oci\.oraclecloud\.com$`,
		Mode:         Automatic,
		InCollection: true, ActiveProbe: false, UniqueFunctionDomain: false, WildcardDNS: true,
		Regions: oracleRegions,
	},
	Azure: {
		ID:           Azure,
		Name:         "Azure",
		Product:      "Azure Function",
		LaunchYear:   2016,
		URLPrefix:    "[PName]",
		DomainSuffix: "azurewebsites.net",
		PathTemplate: ".../[FName]?code=Key",
		Pattern:      `^(.*)\.azurewebsites\.net$`,
		Mode:         Automatic,
		// Excluded everywhere: suffix shared with generic web apps.
		InCollection: false, ActiveProbe: false, UniqueFunctionDomain: false, WildcardDNS: true,
		Regions: azureRegions,
	},
}

// Get returns the static description of the given provider.
// It panics on an out-of-range ID.
func Get(id ID) *Info {
	if id < 0 || id >= numProviders {
		panic(fmt.Sprintf("providers: invalid ID %d", int(id)))
	}
	return &infos[id]
}

// All returns the descriptions of all ten URL formats in Table 1 order.
func All() []*Info {
	out := make([]*Info, 0, numProviders)
	for i := range infos {
		out = append(out, &infos[i])
	}
	return out
}

// Collected returns the formats that participate in PDNS identification
// (everything except Azure).
func Collected() []*Info {
	out := make([]*Info, 0, numProviders-1)
	for i := range infos {
		if infos[i].InCollection {
			out = append(out, &infos[i])
		}
	}
	return out
}

// Probeable returns the formats eligible for active root-path probing:
// AWS, Google2, Tencent, Baidu, Aliyun and Kingsoft (paper §3.3).
func Probeable() []*Info {
	var out []*Info
	for i := range infos {
		if infos[i].ActiveProbe {
			out = append(out, &infos[i])
		}
	}
	return out
}

// PerFunction returns the formats whose FQDN uniquely identifies one cloud
// function, i.e. those included in per-function invocation and lifespan
// analysis (paper §4.3 excludes Google, IBM, and Oracle).
func PerFunction() []*Info {
	var out []*Info
	for i := range infos {
		if infos[i].UniqueFunctionDomain && infos[i].InCollection {
			out = append(out, &infos[i])
		}
	}
	return out
}

// ByName looks a provider up by its short table name (case-insensitive).
func ByName(name string) (*Info, bool) {
	for i := range infos {
		if strings.EqualFold(infos[i].Name, name) {
			return &infos[i], true
		}
	}
	return nil, false
}
