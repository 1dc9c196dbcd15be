package runs

// Target is one of the paper's published scale-invariant results with the
// acceptance band the reproduction must stay inside. EXPERIMENTS.md judges
// its calibration rows by these same bands, so a calibration failure in
// `scfruns gate` and a "**NO**" row in EXPERIMENTS.md mean the same thing.
type Target struct {
	Name  string  `json:"name"`
	Paper float64 `json:"paper"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Desc  string  `json:"desc"`
}

// Contains reports whether v sits inside the acceptance band.
func (t Target) Contains(v float64) bool { return v >= t.Lo && v <= t.Hi }

// PaperTargets are the published values a run's Calibration map is audited
// against (Dive into the Cloud, IMC 2025): Table 2/3, Figures 5–6, §4.3–4.4.
var PaperTargets = []Target{
	{Name: "unreachable_share", Paper: 0.0203, Lo: 0.0083, Hi: 0.0323, Desc: "§4.4 unreachable functions"},
	{Name: "dns_failure_share", Paper: 0.1912, Lo: 0.0912, Hi: 0.2912, Desc: "§4.4 DNS failures among unreachable (deleted Tencent)"},
	{Name: "https_share", Paper: 0.9982, Lo: 0.99, Hi: 1.0, Desc: "§4.4 reachable functions answering HTTPS"},
	{Name: "http_404_share", Paper: 0.8931, Lo: 0.8531, Hi: 0.9331, Desc: "Fig 6 HTTP 404 share"},
	{Name: "http_200_share", Paper: 0.0314, Lo: 0.0014, Hi: 0.0614, Desc: "Fig 6 HTTP 200 share"},
	{Name: "single_day_lifespan", Paper: 0.8130, Lo: 0.7830, Hi: 0.8430, Desc: "§4.3 single-day lifespan"},
	{Name: "density_one_share", Paper: 0.8301, Lo: 0.7901, Hi: 0.8701, Desc: "§4.3 activity density p=1"},
	{Name: "frac_under5", Paper: 0.7814, Lo: 0.7514, Hi: 0.8114, Desc: "Fig 5 functions invoked <5 times"},
	{Name: "frac_over100", Paper: 0.0787, Lo: 0.0487, Hi: 0.1087, Desc: "Fig 5 functions invoked >100 times"},
	{Name: "abuse_rate", Paper: 0.0489, Lo: 0.02, Hi: 0.12, Desc: "Table 3 abuse rate of content-rich functions"},
}

// TargetFor looks a target up by calibration key.
func TargetFor(name string) (Target, bool) {
	for _, t := range PaperTargets {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}
