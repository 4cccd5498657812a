// Machine-readable results: xftlbench -json serializes every table it
// printed, so result trajectories can accumulate across runs without
// scraping the text tables.
package bench

import (
	"encoding/json"
	"os"
)

// JSONDoc is the top-level document written by xftlbench -json.
type JSONDoc struct {
	Tool  string `json:"tool"`
	Quick bool   `json:"quick"`
	// Seed is the -seed override used for the run; 0 means every
	// generator ran with its historical default seed.
	Seed       int64   `json:"seed"`
	FaultScale float64 `json:"fault_scale,omitempty"`
	// WallSeconds is the real (host) time the whole invocation took —
	// the simulator's cost, not the simulated device's.
	WallSeconds float64          `json:"wall_seconds,omitempty"`
	Experiments []JSONExperiment `json:"experiments"`
}

// JSONExperiment is one experiment's results: its formatted tables
// (title, header, rows, notes).
type JSONExperiment struct {
	Name   string   `json:"name"`
	Tables []*Table `json:"tables,omitempty"`
}

// WriteJSON writes the document, indented, to path.
func WriteJSON(path string, doc *JSONDoc) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
