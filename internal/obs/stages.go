package obs

// StageTiming is one span flattened out of a trace tree: Path is the
// slash-joined span path ("classify/c2-sweep"), so depth and ancestry
// survive flattening. This is the machine-comparable row the run archive
// stores, the regression differ consumes and the stage table renders.
type StageTiming struct {
	Path   string `json:"path"`
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	Err    string `json:"err,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// FlattenStages walks a span tree depth-first into StageTiming rows, parents
// before children, siblings in start order (the order Records returns).
func FlattenStages(recs []SpanRecord) []StageTiming {
	var out []StageTiming
	var walk func(prefix string, r SpanRecord)
	walk = func(prefix string, r SpanRecord) {
		path := r.Name
		if prefix != "" {
			path = prefix + "/" + r.Name
		}
		out = append(out, StageTiming{Path: path, WallNS: r.WallNS, CPUNS: r.CPUNS, Err: r.Err, Attrs: r.Attrs})
		for _, c := range r.Children {
			walk(path, c)
		}
	}
	for _, r := range recs {
		walk("", r)
	}
	return out
}
