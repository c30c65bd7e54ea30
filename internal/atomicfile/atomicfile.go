// Package atomicfile replaces a file so that readers and a crash see
// either the old bytes or the new ones, never a torn mix.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what save writes: through path+".tmp", an
// fsync and a checked Close, a rename, then an fsync of the parent
// directory, so a power loss cannot undo a replacement Write already
// reported. If any step fails, the previous file at path is left as it
// was and the temporary file is removed. It returns save's byte count.
func Write(path string, save func(w io.Writer) (int64, error)) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, err
	}
	return n, SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making renames and newly created files
// under it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
