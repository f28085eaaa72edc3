package main

import (
	"strings"
	"testing"
)

func TestCheckExperiment(t *testing.T) {
	for _, name := range []string{"all", "setup", "fig1", "table3a", "table3b", "cost", "ablations"} {
		if err := checkExperiment(name); err != nil {
			t.Errorf("checkExperiment(%q) = %v, want nil", name, err)
		}
	}
	// Names of removed experiments that old scripts may still spell.
	for _, name := range []string{"shard", "throughput", "ingest", "multitenant", "trace", "nosuch", ""} {
		err := checkExperiment(name)
		if err == nil {
			t.Errorf("checkExperiment(%q) = nil, want an error", name)
			continue
		}
		if !strings.Contains(err.Error(), "table3a") || !strings.Contains(err.Error(), "all") {
			t.Errorf("checkExperiment(%q) = %q, want the valid names listed", name, err)
		}
	}
}
