package main

import "strings"

// spanMs returns the durations, in ms, of the spans called name that belong
// to an operation; a serve span nobody claimed (a hedge loser) stays out.
func spanMs(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && s.Op != 0 {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return xs
}

// selfMs returns the self times, in ms, of the spans called name.
func selfMs(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID])/1e6)
		}
	}
	return xs
}

// opAccount is one operation seen through its spans: the root's duration and
// the self time of every span under it, summed by span name.
type opAccount struct {
	kind   string
	rootNs int64
	selfNs map[string]int64
}

// accounts groups a pass's spans by operation.
func accounts(spans []span) []opAccount {
	self := selfTimes(spans)
	byOp := map[int64]*opAccount{}
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "client.op.") {
			byOp[s.Op] = &opAccount{kind: strings.TrimPrefix(s.Name, "client.op."), rootNs: s.End - s.Start, selfNs: map[string]int64{}}
		}
	}
	for _, s := range spans {
		if a := byOp[s.Op]; a != nil && s.Parent != 0 {
			a.selfNs[s.Name] += self[s.ID]
		}
	}
	out := make([]opAccount, 0, len(byOp))
	for _, a := range byOp {
		out = append(out, *a)
	}
	return out
}

// unaccountedFrac is ROADMAP 1c's remainder for one workload: per operation
// kind, the median operation time minus the sum over layers of the median
// self time spent in that layer, as a share of the median operation time;
// kinds are weighted by the time they account for.
func unaccountedFrac(p *pass) float64 {
	byKind := map[string][]opAccount{}
	for _, a := range accounts(p.spans) {
		byKind[a.kind] = append(byKind[a.kind], a)
	}
	var gap, total float64
	for _, as := range byKind {
		roots := make([]float64, len(as))
		layers := map[string][]float64{}
		for i, a := range as {
			roots[i] = float64(a.rootNs)
			for name := range a.selfNs {
				layers[name] = nil
			}
		}
		for name := range layers {
			xs := make([]float64, len(as))
			for i, a := range as {
				xs[i] = float64(a.selfNs[name])
			}
			layers[name] = xs
		}
		op := median(roots)
		sum := 0.0
		for _, xs := range layers {
			sum += median(xs)
		}
		n := float64(len(as))
		gap += n * (op - sum)
		total += n * op
	}
	return gap / total
}

// traceOverheadFrac compares the traced pass's operation medians with the
// untraced pass's, kind by kind, weighted by the time each kind accounts for.
func traceOverheadFrac(untraced, traced *pass) float64 {
	var gap, total float64
	for kind := range traced.byKind {
		if len(untraced.byKind[kind]) == 0 {
			continue
		}
		mu, mt := median(untraced.ms(kind)), median(traced.ms(kind))
		n := float64(len(traced.byKind[kind]))
		gap += n * (mt - mu)
		total += n * mu
	}
	return gap / total
}
