// Package atomicfile replaces a file's contents so that a crash or power
// loss at any point leaves either the previous file or the complete new
// one — the contract every persisted cache and plan file relies on.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write streams write's output to a hidden temp file beside path, syncs
// it to stable storage, and renames it over path. The sync is what makes
// the rename safe across power loss: without it the directory entry can
// reach disk before the data does, leaving an empty or truncated file
// under the final name. On any failure the previous file is untouched and
// the temp file is removed.
func Write(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
