package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// layersJSON is the benchmark's metric catalogue: every end-to-end metric
// with its unit, direction, bound and definition, and the layer map —
// each module's packages, per-layer metrics, the end-to-end metrics it
// should move, and the workloads it is heavy on or bypassed by. Performance
// claims cite metrics and workloads by these names. BENCHMARK.json at the
// repository root repeats the names, units, directions and bounds in the
// fixed shape the benchmark runner reads; a test keeps the two equal.
//
//go:embed layers.json
var layersJSON []byte

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Functions are pprof function-name prefixes: the metric is the
	// cumulative CPU of samples with any matching frame.
	Functions []string `json:"functions,omitempty"`
}

type layerDef struct {
	Module   string      `json:"module"`
	Packages []string    `json:"packages"`
	Moves    []string    `json:"moves"`
	Heavy    []string    `json:"heavy"`
	Bypass   []string    `json:"bypass"`
	Metrics  []metricDef `json:"metrics"`
}

type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	Layers   []layerDef  `json:"layers"`
}

func loadCatalogue() (*catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(layersJSON, &c); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return &c, nil
}

// perLayer lists every per-layer metric in catalogue order.
func (c *catalogue) perLayer() []metricDef {
	var out []metricDef
	for _, l := range c.Layers {
		out = append(out, l.Metrics...)
	}
	return out
}
