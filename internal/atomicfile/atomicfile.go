// Package atomicfile replaces files whole: a path either keeps its
// previous bytes or holds the complete new ones, never a prefix. The
// archive's manifest, segments and edge sidecars and the CQ engine's
// registration file all go through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write stages a file in tmpDir (which must sit on path's filesystem),
// lets fill produce its content, and renames it over path, creating
// path's directory if needed. It returns the number of bytes staged. On
// any failure the staged file is removed and path is left untouched.
func Write(tmpDir, path string, fill func(io.Writer) error) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(tmpDir, filepath.Base(path)+"-*")
	if err != nil {
		return 0, err
	}
	var size int64
	err = fill(tmp)
	if err == nil {
		var fi os.FileInfo
		if fi, err = tmp.Stat(); err == nil {
			size = fi.Size()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return size, nil
}

// Bytes is the fill for content already in memory.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}
