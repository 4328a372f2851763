package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json names every metric a run prints in its result line:
// the end-to-end ones untraced, the per-layer ones traced. Both lists
// must match what the program reports, name for name and unit for unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
	e2e, _ := endToEnd(&passResult{rec: newRecorder()})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("a run reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerTable) != len(spec.PerLayer) {
		t.Errorf("a traced run reports %d per-layer metrics, BENCHMARK.json lists %d", len(layerTable), len(spec.PerLayer))
	}
	units := map[string]string{}
	for _, row := range layerTable {
		units[row.name] = row.unit
	}
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): reported with unit %q", m.Name, m.Unit, u)
		}
	}
}
