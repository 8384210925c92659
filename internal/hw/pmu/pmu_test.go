package pmu

import "testing"

func TestEventString(t *testing.T) {
	if BrNotTaken.String() != "br_not_taken" {
		t.Errorf("BrNotTaken.String() = %q", BrNotTaken.String())
	}
	if L3Access.String() != "l3_access" {
		t.Errorf("L3Access.String() = %q", L3Access.String())
	}
	if Event(-1).String() == "" || Event(999).String() == "" {
		t.Error("out-of-range events must still stringify")
	}
	// Every event has a distinct non-empty name.
	seen := map[string]bool{}
	for e := Event(0); e < NumEvents; e++ {
		n := e.String()
		if n == "" || seen[n] {
			t.Errorf("event %d: bad or duplicate name %q", e, n)
		}
		seen[n] = true
	}
}

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(BrNotTaken, BrMPTaken, BrMPNotTaken, L3Access); err != nil {
		t.Errorf("paper's four events rejected: %v", err)
	}
	if _, err := NewGroup(BrNotTaken, BrMPTaken, BrMPNotTaken, L3Access, L3Miss); err == nil {
		t.Error("five programmable events accepted")
	}
	// Fixed counters don't consume slots.
	if _, err := NewGroup(BrNotTaken, BrMPTaken, BrMPNotTaken, L3Access, Instructions, Cycles); err != nil {
		t.Errorf("four programmable + fixed rejected: %v", err)
	}
	if _, err := NewGroup(BrTaken, BrTaken); err == nil {
		t.Error("duplicate event accepted")
	}
	if _, err := NewGroup(Event(-3)); err == nil {
		t.Error("unknown event accepted")
	}
}

// TestPaperGroup projects a sample with every counter set onto the paper's
// group: its four events and the two fixed counters survive, nothing else.
func TestPaperGroup(t *testing.T) {
	var s Sample
	for e := range s {
		s[e] = uint64(e) + 1
	}
	p := s.Project(PaperGroup())
	want := map[Event]bool{BrNotTaken: true, BrMPTaken: true, BrMPNotTaken: true, L3Access: true, Instructions: true, Cycles: true}
	for e := Event(0); e < NumEvents; e++ {
		if want[e] && p[e] != s[e] {
			t.Errorf("PaperGroup missing %v", e)
		}
		if !want[e] && p[e] != 0 {
			t.Errorf("PaperGroup holds %v", e)
		}
	}
}

func TestSampleArithmetic(t *testing.T) {
	var a, b Sample
	a[BrTaken] = 100
	a[L3Access] = 50
	b[BrTaken] = 40
	b[L3Access] = 20
	d := a.Sub(b)
	if d[BrTaken] != 60 || d[L3Access] != 30 {
		t.Errorf("Sub = %v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Errorf("Add(Sub) != original: %v vs %v", s, a)
	}
}

func TestSampleProject(t *testing.T) {
	var s Sample
	for e := Event(0); e < NumEvents; e++ {
		s[e] = uint64(e) + 1
	}
	g, _ := NewGroup(BrNotTaken, L3Access)
	p := s.Project(g)
	if p[BrNotTaken] != s[BrNotTaken] || p[L3Access] != s[L3Access] {
		t.Error("projected events lost values")
	}
	if p[BrTaken] != 0 || p[Instructions] != 0 {
		t.Error("non-group events must be zeroed")
	}
}
