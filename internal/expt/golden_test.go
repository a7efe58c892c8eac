package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ios/internal/gpusim"
)

// TestGoldenQuickReports pins every experiment's quick report on the V100
// byte for byte. The files under testdata/quick were written by
// `iosbench -quick -exp <id>` (minus its "### id ###" header and
// "(id took …)" footer) and are not regenerated by the test: a diff here
// means a paper number moved, which is a finding, not a stale file.
func TestGoldenQuickReports(t *testing.T) {
	for _, id := range Names() {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "quick", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := runExpt(t, id, Config{Device: gpusim.TeslaV100, Quick: true})
			if id == "fig9" {
				// The optimization-cost column is wall time, the one
				// cell of any report that differs run to run.
				got = maskColumn(got, "search s")
			}
			if got != string(want) {
				t.Errorf("%s report differs from testdata/quick/%s.txt\n--- got ---\n%s--- want ---\n%s", id, id, got, want)
			}
		})
	}
}

// maskColumn overwrites the cells under one header of a report.Table with
// '*'. Table lines are padded to a common length, so the rows are the
// lines below the dashed rule that are as long as it.
func maskColumn(out, header string) string {
	lines := strings.Split(out, "\n")
	for i := 0; i+1 < len(lines); i++ {
		off := strings.Index(lines[i], header)
		if off < 0 || !strings.HasPrefix(lines[i+1], "-") {
			continue
		}
		rule := lines[i+1]
		width := len(rule[off:]) - len(strings.TrimLeft(rule[off:], "-"))
		for j := i + 2; j < len(lines) && len(lines[j]) == len(rule); j++ {
			lines[j] = lines[j][:off] + strings.Repeat("*", width) + lines[j][off+width:]
		}
		break
	}
	return strings.Join(lines, "\n")
}
