package progopt

import (
	"testing"
)

// Template indexes into serveMixPlans: the longest and the shortest of the
// six on a four-core pool.
const (
	mixLong  = 1 // graph3_progressive
	mixShort = 3 // scan2_micro
)

// orderServer builds a four-core engine over the served templates' data and a
// server on it admitting at most four queries.
func orderServer(t *testing.T, cfg ServerConfig) (*Server, *Dataset, []*Plan, []ExecOptions) {
	t.Helper()
	e, err := New(Config{Workers: 4, VectorSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	d, err := e.GenerateTPCH(16*512, 7, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxActive = 4
	srv, err := NewServer(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	plans, opts := serveMixPlans(d)
	return srv, d, plans, opts
}

// serveAt submits template k of plans at each arrival, in order, then waits
// for every ticket and returns the served timestamps in submission order.
func serveAt(t *testing.T, srv *Server, d *Dataset, plans []*Plan, opts []ExecOptions, tmpl []int, at []uint64) []*ServedInfo {
	t.Helper()
	tks := make([]*Ticket, len(tmpl))
	for i, k := range tmpl {
		var err error
		if tks[i], err = srv.SubmitAt(d, plans[k], opts[k], at[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*ServedInfo, len(tks))
	for i, tk := range tks {
		r, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r.Served
	}
	return out
}

// learn serves each template of tmpl alone, so the feedback cache holds its
// span, and returns the spans.
func learn(t *testing.T, srv *Server, d *Dataset, plans []*Plan, opts []ExecOptions, tmpl ...int) []uint64 {
	t.Helper()
	spans := make([]uint64, len(tmpl))
	for i, k := range tmpl {
		sv := serveAt(t, srv, d, plans, opts, []int{k}, []uint64{srv.svc.Now()})[0]
		spans[i] = sv.Done - sv.Start
	}
	return spans
}

// TestShortestExpectedFirst: once the feedback cache holds both spans, a
// short template admitted behind a long one, both waiting on a running query,
// runs first. A server that runs the oldest admitted query serves the long
// one first.
func TestShortestExpectedFirst(t *testing.T) {
	srv, d, plans, opts := orderServer(t, ServerConfig{})
	spans := learn(t, srv, d, plans, opts, mixLong, mixShort)
	if spans[0] <= spans[1] {
		t.Fatalf("template %d spans %d cycles, not longer than template %d's %d", mixLong, spans[0], mixShort, spans[1])
	}
	now := srv.svc.Now()
	sv := serveAt(t, srv, d, plans, opts, []int{mixLong, mixLong, mixShort}, []uint64{now, now + 1, now + 2})
	blocker, long, short := sv[0], sv[1], sv[2]
	if short.Arrival >= blocker.Done {
		t.Fatalf("the short query arrived at %d, after the first query completed at %d: nothing to choose", short.Arrival, blocker.Done)
	}
	if short.Done >= long.Done {
		t.Errorf("the short query (span %d) completed at %d, the long one admitted before it (span %d) at %d",
			short.Done-short.Start, short.Done, long.Done-long.Start, long.Done)
	}
}

// TestOvertakeBound: under overload, one long query among many short ones
// is overtaken by younger queries at most MaxActive times, and exactly that
// often here, since short ones keep arriving. Without the bound it would
// wait until the short ones ran out.
func TestOvertakeBound(t *testing.T) {
	const maxActive, shorts = 4, 24
	srv, d, plans, opts := orderServer(t, ServerConfig{})
	learn(t, srv, d, plans, opts, mixLong, mixShort)
	now := srv.svc.Now()
	tmpl := []int{mixShort, mixLong}
	for len(tmpl) < shorts+2 {
		tmpl = append(tmpl, mixShort)
	}
	at := make([]uint64, len(tmpl))
	for i := range at {
		at[i] = now + uint64(i) // every query arrives while the first runs
	}
	sv := serveAt(t, srv, d, plans, opts, tmpl, at)
	for i, a := range sv {
		overtaken := 0
		for _, b := range sv[i+1:] {
			if b.Done < a.Done {
				overtaken++
			}
		}
		if overtaken > maxActive {
			t.Errorf("query %d (template %d) was overtaken %d times, more than MaxActive %d", i, tmpl[i], overtaken, maxActive)
		}
		if tmpl[i] == mixLong && overtaken != maxActive {
			t.Errorf("the long query was overtaken %d times, want MaxActive %d", overtaken, maxActive)
		}
	}
}

// TestFeedbackOffServesOldestFirst: with feedback off every submission has
// the zero fingerprint and every expected cost ties, so the server runs the
// admitted queries in admission order: after the long and the short template
// ran alone once, which leaves nothing in the cache, an overloaded
// serve_mix-shaped trace starts and completes in arrival order.
func TestFeedbackOffServesOldestFirst(t *testing.T) {
	srv, d, plans, opts := orderServer(t, ServerConfig{DisableFeedback: true})
	learn(t, srv, d, plans, opts, mixLong, mixShort)
	now := srv.svc.Now()
	var tmpl []int
	var at []uint64
	for i := 0; i < 4; i++ {
		for k := range plans {
			tmpl = append(tmpl, (k+i)%len(plans))
			at = append(at, now+uint64(len(at))*20_000)
		}
	}
	sv := serveAt(t, srv, d, plans, opts, tmpl, at)
	for i := 1; i < len(sv); i++ {
		if sv[i].Start <= sv[i-1].Start || sv[i].Done <= sv[i-1].Done {
			t.Errorf("query %d (template %d) ran %d..%d, not after query %d (template %d), which arrived before it and ran %d..%d",
				i, tmpl[i], sv[i].Start, sv[i].Done, i-1, tmpl[i-1], sv[i-1].Start, sv[i-1].Done)
		}
	}
}
