package main

import "testing"

// TestAllExperimentsQuick runs every experiment at quick size: each one
// internally verifies its own paper claims (figure matches, theorem bounds,
// result equality) and returns an error on any violation, so this is a full
// integration pass over the reproduction.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range experiments {
		e := e
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(true); err != nil {
				t.Fatalf("%s (%s): %v", e.id, e.title, err)
			}
		})
	}
}

func TestExperimentIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %s", e.id)
		}
		seen[e.id] = true
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.id)
		}
	}
	if len(experiments) != 14 {
		t.Errorf("expected 14 experiments, found %d", len(experiments))
	}
}
