package trace

import "sort"

// Tree is one assembled trace: all spans sharing a trace ID, with the
// root identified and the trace's overall extent computed. Spans are
// sorted by start time.
type Tree struct {
	Trace   string    `json:"trace"`
	Session string    `json:"session,omitempty"` // first session label seen
	StartNS int64     `json:"start_ns"`
	DurNS   int64     `json:"dur_ns"` // earliest start → latest end
	Root    *Record   `json:"-"`      // span with no parent in the set; nil if incomplete
	Spans   []*Record `json:"spans"`
}

// Complete reports whether the tree has a root span (its topmost span
// was captured — partially evicted traces have none).
func (t *Tree) Complete() bool { return t.Root != nil }

// Assemble groups span records into trace trees, newest-start first.
func Assemble(recs []*Record) []*Tree {
	byTrace := make(map[string]*Tree)
	var order []*Tree
	for _, r := range recs {
		tr := byTrace[r.Trace]
		if tr == nil {
			tr = &Tree{Trace: r.Trace}
			byTrace[r.Trace] = tr
			order = append(order, tr)
		}
		tr.Spans = append(tr.Spans, r)
	}
	for _, tr := range order {
		ids := make(map[string]bool, len(tr.Spans))
		for _, s := range tr.Spans {
			ids[s.Span] = true
		}
		start, end := tr.Spans[0].StartNS, tr.Spans[0].End()
		for _, s := range tr.Spans {
			if s.StartNS < start {
				start = s.StartNS
			}
			if s.End() > end {
				end = s.End()
			}
			if tr.Session == "" && s.Session != "" {
				tr.Session = s.Session
			}
			// The root is the span whose parent is absent from the
			// captured set (the client's span, for server-side rings).
			if s.Parent == "" || !ids[s.Parent] {
				if tr.Root == nil || s.StartNS < tr.Root.StartNS {
					tr.Root = s
				}
			}
		}
		tr.StartNS, tr.DurNS = start, end-start
		sort.Slice(tr.Spans, func(i, j int) bool { return tr.Spans[i].StartNS < tr.Spans[j].StartNS })
	}
	sort.Slice(order, func(i, j int) bool { return order[i].StartNS > order[j].StartNS })
	return order
}

// PhaseStat is one span name's aggregate across a set of traces.
type PhaseStat struct {
	Name    string
	Count   int
	TotalNS int64
	MaxNS   int64
}

// Phases aggregates span durations by name across trees, sorted by
// total time descending — the per-scheme/per-phase breakdown.
func Phases(trees []*Tree) []PhaseStat {
	byName := make(map[string]*PhaseStat)
	var order []*PhaseStat
	for _, tr := range trees {
		for _, s := range tr.Spans {
			ps := byName[s.Name]
			if ps == nil {
				ps = &PhaseStat{Name: s.Name}
				byName[s.Name] = ps
				order = append(order, ps)
			}
			ps.Count++
			ps.TotalNS += s.DurNS
			if s.DurNS > ps.MaxNS {
				ps.MaxNS = s.DurNS
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].TotalNS > order[j].TotalNS })
	out := make([]PhaseStat, len(order))
	for i, p := range order {
		out[i] = *p
	}
	return out
}

// Coverage is a critical-path accounting of one span: how much of its
// duration is explained by its direct children.
type Coverage struct {
	Span       *Record
	ChildNS    int64   // union of direct-child intervals, clamped to the span
	Fraction   float64 // ChildNS / DurNS (1 for zero-length spans)
	GapNS      int64   // DurNS - ChildNS: self time / unattributed
	ChildCount int
}

// CriticalPath computes child coverage of the given span within its
// tree: the union of its direct children's intervals (overlapping
// children are not double counted).
func CriticalPath(tr *Tree, span *Record) Coverage {
	cov := Coverage{Span: span}
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range tr.Spans {
		if s.Parent != span.Span {
			continue
		}
		cov.ChildCount++
		a, b := s.StartNS, s.End()
		if a < span.StartNS {
			a = span.StartNS
		}
		if b > span.End() {
			b = span.End()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	cov.ChildNS = covered
	cov.GapNS = span.DurNS - covered
	if span.DurNS > 0 {
		cov.Fraction = float64(covered) / float64(span.DurNS)
	} else {
		cov.Fraction = 1
	}
	return cov
}
