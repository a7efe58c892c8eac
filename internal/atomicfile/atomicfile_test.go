package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	for _, body := range []string{"first", "second, longer", "3"} {
		err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Fatalf("after Write(%q): file = %q, %v", body, got, err)
		}
	}
}

// TestFailingWriterLeavesPreviousFile: a writer that fails after emitting
// part of its output must leave the previous file byte-identical and no
// temp file behind.
func TestFailingWriterLeavesPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	const good = `{"version":1,"entries":[]}` + "\n"
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"version":1,"entr`); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != good {
		t.Fatalf("previous file changed: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "f.json" {
		t.Fatalf("directory holds %v, want only f.json (temp file left behind)", ents)
	}
}

func TestWriteMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "f.json")
	if err := Write(path, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}
