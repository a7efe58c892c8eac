package main

import (
	"encoding/json"
	"io"

	"ios/internal/lint"
)

// finding is the stable machine-readable form of one diagnostic. The
// rule/position/message schema is a compatibility contract for scripts
// and editor integrations that read -json (TestJSONOutput pins its
// keys), so fields are only ever added, never renamed or removed.
type finding struct {
	Rule     string   `json:"rule"`
	Position position `json:"position"`
	Message  string   `json:"message"`
}

// position locates a finding in the analyzed tree.
type position struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// toFindings converts diagnostics into the stable schema, preserving
// report order. The result is never nil, so empty runs encode as [].
func toFindings(diags []lint.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			Rule:     d.Analyzer,
			Position: position{File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column},
			Message:  d.Message,
		})
	}
	return out
}

// writeJSON emits the findings array, indented for human diffing.
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toFindings(diags))
}
