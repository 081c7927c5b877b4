package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"datacell/internal/provenance"
)

// TestMergeKernelJSONRestampsProvenance pins that a regenerated kernel
// figure carries the provenance of the run that produced it: the merge
// keeps the committed baseline rows, replaces only the tool's own row and
// overwrites a stale stamp with the current environment.
func TestMergeKernelJSONRestampsProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	stale := map[string]any{
		"fig": "kernel",
		"rows": []any{
			map[string]any{"phase": "pre_pr_baseline", "events_per_second": 1.0},
			map[string]any{"phase": "this_pr", "events_per_second": 2.0},
		},
		"provenance": provenance.Info{GoVersion: "go0.0", GOMAXPROCS: 1, NumCPU: 1, CapturedAt: "2000-01-01T00:00:00Z"},
	}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeKernelJSON(path, map[string]any{"phase": "this_pr", "events_per_second": 3.0}); err != nil {
		t.Fatal(err)
	}

	var got struct {
		Rows       []map[string]any `json:"rows"`
		Provenance provenance.Info  `json:"provenance"`
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0]["phase"] != "pre_pr_baseline" || got.Rows[1]["events_per_second"] != 3.0 {
		t.Fatalf("rows after merge: %v", got.Rows)
	}
	if d := provenance.Diff(got.Provenance, provenance.Capture()); len(d) != 0 {
		t.Fatalf("merged file keeps a stale provenance stamp: %v", d)
	}
}
