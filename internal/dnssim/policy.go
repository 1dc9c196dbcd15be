// Package dnssim simulates the ingress-side DNS behaviour of serverless
// function providers (paper §4.2, Table 2). Each provider is modelled by a
// resolution policy describing its record-type mix (A / AAAA / CNAME), its
// per-region ingress-node pools, its use of anycast, its reliance on
// third-party network infrastructure, and whether deleted functions keep
// resolving through a wildcard record (paper §4.4).
//
// The paper derived these behaviours from two years of PDNS observations;
// here they are encoded as generative policies so that the same analysis
// pipeline can recover them from synthetic data.
package dnssim

import (
	"fmt"
	"math/rand"

	"repro/internal/pdns"
	"repro/internal/providers"
)

// Owner identifies who operates an ingress node. Most providers answer with
// their own data-centre addresses; Baidu and Kingsoft lean on China's three
// telecom operators, and IBM fronts its functions with Cloudflare
// (paper Finding 3).
type Owner int

const (
	OwnerProvider Owner = iota
	OwnerChinaTelecom
	OwnerChinaUnicom
	OwnerChinaMobile
	OwnerCloudflare
)

func (o Owner) String() string {
	switch o {
	case OwnerProvider:
		return "provider"
	case OwnerChinaTelecom:
		return "china-telecom"
	case OwnerChinaUnicom:
		return "china-unicom"
	case OwnerChinaMobile:
		return "china-mobile"
	case OwnerCloudflare:
		return "cloudflare"
	default:
		return fmt.Sprintf("Owner(%d)", int(o))
	}
}

// ThirdParty reports whether the owner is external to the cloud provider.
func (o Owner) ThirdParty() bool { return o != OwnerProvider }

// Policy is the generative description of one provider's ingress DNS.
type Policy struct {
	Provider providers.ID

	// Record-type mix, as fractions of answered requests (Table 2 "Total").
	// The three shares sum to 1 for providers that answer; CNAME answers
	// ultimately resolve to A records upstream, but PDNS logs the CNAME row.
	AShare, AAAAShare, CNAMEShare float64

	// Pool sizes. For region-based providers these are per-region node
	// counts; Anycast providers use GlobalA/GlobalAAAA nodes worldwide.
	Anycast         bool
	GlobalA         int
	GlobalAAAA      int
	RegionA         func(region string) int
	RegionAAAA      func(region string) int
	RegionCNAME     int     // CNAME aliases per region (0 = provider never CNAMEs)
	ThirdPartyOwner []Owner // non-empty if ingress is outsourced
}

// policies is keyed by provider, calibrated to Table 2.
var policies = map[providers.ID]*Policy{
	providers.Aliyun: {
		Provider: providers.Aliyun,
		AShare:   0.2796, CNAMEShare: 0.7204, AAAAShare: 0,
		RegionA:     flat(3),
		RegionCNAME: 2,
	},
	providers.Baidu: {
		Provider: providers.Baidu,
		AShare:   0.2247, CNAMEShare: 0.7753, AAAAShare: 0,
		RegionA:         flat(3), // 3 regions x ~3 operator VIPs ≈ 10 total
		RegionCNAME:     1,
		ThirdPartyOwner: []Owner{OwnerChinaTelecom, OwnerChinaUnicom, OwnerChinaMobile},
	},
	providers.Tencent: {
		Provider: providers.Tencent,
		AShare:   0.2389, CNAMEShare: 0.7611, AAAAShare: 0,
		RegionA:     flat(2), // 22 regions x ~1.6 ≈ 35 total
		RegionCNAME: 2,       // geographic aliases like gz.scf.tencentcs.com
	},
	providers.Kingsoft: {
		Provider:        providers.Kingsoft,
		AShare:          1,
		RegionA:         flat(2), // 2 regions x 2 = 4 total
		ThirdPartyOwner: []Owner{OwnerChinaTelecom, OwnerChinaUnicom, OwnerChinaMobile},
	},
	providers.AWS: {
		Provider: providers.AWS,
		AShare:   0.7673, AAAAShare: 0.2327,
		// AWS is the outlier: thousands of ingress nodes in popular regions
		// (ap-northeast-1: 2082 IPv4 / 2579 IPv6), hundreds elsewhere.
		RegionA:    awsPoolIPv4,
		RegionAAAA: awsPoolIPv6,
	},
	providers.Google: {
		Provider: providers.Google,
		AShare:   0.7641, AAAAShare: 0.2359,
		Anycast: true, GlobalA: 1, GlobalAAAA: 1,
	},
	providers.Google2: {
		Provider: providers.Google2,
		AShare:   0.6675, AAAAShare: 0.3325,
		Anycast: true, GlobalA: 4, GlobalAAAA: 4,
	},
	providers.IBM: {
		Provider: providers.IBM,
		AShare:   0.1015, CNAMEShare: 0.8755, AAAAShare: 0.0230,
		RegionA: flat(1), RegionAAAA: flat(1), RegionCNAME: 1,
		ThirdPartyOwner: []Owner{OwnerCloudflare},
	},
	providers.Oracle: {
		Provider: providers.Oracle,
		AShare:   1,
		RegionA: func(region string) int {
			// 31 IPv4 nodes over 5 regions, with a skew that keeps the
			// Top10 share near the observed 57.97%.
			if region == "us-ashburn-1" {
				return 11
			}
			return 5
		},
	},
}

func flat(n int) func(string) int { return func(string) int { return n } }

// awsPoolIPv4 mirrors the dispersion reported in §4.2: Tokyo, Ireland, and
// Virginia exceed a thousand nodes; other regions are an order smaller.
func awsPoolIPv4(region string) int {
	switch region {
	case "ap-northeast-1":
		return 2082
	case "eu-west-1":
		return 1400
	case "us-east-1":
		return 1300
	default:
		return 320
	}
}

func awsPoolIPv6(region string) int {
	switch region {
	case "ap-northeast-1":
		return 2579
	case "eu-west-1":
		return 1900
	case "us-east-1":
		return 1800
	default:
		return 560
	}
}

// PolicyFor returns the resolution policy of a provider participating in
// PDNS collection. ok is false for Azure and out-of-range IDs.
func PolicyFor(id providers.ID) (*Policy, bool) {
	p, ok := policies[id]
	return p, ok
}

// SampleRType draws a record type according to the provider's mix.
func (p *Policy) SampleRType(rng *rand.Rand) pdns.RType {
	x := rng.Float64()
	switch {
	case x < p.CNAMEShare:
		return pdns.TypeCNAME
	case x < p.CNAMEShare+p.AAAAShare:
		return pdns.TypeAAAA
	default:
		return pdns.TypeA
	}
}

// NodeCount returns the ingress pool size for (rtype, region).
func (p *Policy) NodeCount(t pdns.RType, region string) int {
	if p.Anycast {
		switch t {
		case pdns.TypeA:
			return p.GlobalA
		case pdns.TypeAAAA:
			return p.GlobalAAAA
		default:
			return 0
		}
	}
	switch t {
	case pdns.TypeA:
		if p.RegionA == nil {
			return 0
		}
		return p.RegionA(region)
	case pdns.TypeAAAA:
		if p.RegionAAAA == nil {
			return 0
		}
		return p.RegionAAAA(region)
	case pdns.TypeCNAME:
		return p.RegionCNAME
	default:
		return 0
	}
}
