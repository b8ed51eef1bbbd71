package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// staged lists what a Write left in the staging directory.
func staged(t *testing.T, tmpDir string) []string {
	t.Helper()
	ents, err := os.ReadDir(tmpDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWrite(t *testing.T) {
	errFill := errors.New("fill failed")
	for _, tc := range []struct {
		name string
		// path is relative to the test's root; prev, when non-empty, is
		// written there first.
		path, prev string
		// blockRename puts a non-empty directory at path, so the final
		// rename cannot succeed.
		blockRename bool
		noTmpDir    bool
		fill        func(io.Writer) error
		want        string // path's content afterwards ("" = must not exist)
		wantErr     bool
	}{
		{name: "new file", path: "f", fill: Bytes([]byte("new")), want: "new"},
		{name: "replaces previous bytes", path: "f", prev: "previous, longer", fill: Bytes([]byte("new")), want: "new"},
		{name: "creates the missing parent", path: "a/b/f", fill: Bytes([]byte("new")), want: "new"},
		{name: "empty content", path: "f", prev: "previous", fill: Bytes(nil), want: ""},
		{name: "failing fill keeps previous bytes", path: "f", prev: "previous", wantErr: true, want: "previous",
			fill: func(w io.Writer) error {
				io.WriteString(w, "half a fi")
				return errFill
			}},
		{name: "failing fill creates nothing", path: "f", wantErr: true, fill: func(io.Writer) error { return errFill }},
		{name: "failing rename", path: "f", blockRename: true, wantErr: true, fill: Bytes([]byte("new"))},
		{name: "missing staging directory", path: "f", prev: "previous", noTmpDir: true, wantErr: true, want: "previous",
			fill: Bytes([]byte("new"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tmpDir := filepath.Join(root, "tmp")
			if !tc.noTmpDir {
				if err := os.Mkdir(tmpDir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(root, tc.path)
			if tc.prev != "" {
				if err := os.WriteFile(path, []byte(tc.prev), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.blockRename {
				if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
			}

			size, err := Write(tmpDir, path, tc.fill)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Write error = %v, want error %v", err, tc.wantErr)
			}
			if tc.wantErr && size != 0 {
				t.Errorf("failed Write reported %d bytes", size)
			}
			if !tc.wantErr && size != int64(len(tc.want)) {
				t.Errorf("Write reported %d bytes, wrote %d", size, len(tc.want))
			}
			if !tc.noTmpDir {
				if left := staged(t, tmpDir); len(left) != 0 {
					t.Errorf("staging directory not empty: %v", left)
				}
			}
			switch got, rerr := os.ReadFile(path); {
			case tc.blockRename:
				if _, err := os.Stat(filepath.Join(path, "occupied")); err != nil {
					t.Errorf("the directory at path was disturbed: %v", err)
				}
			case tc.wantErr && tc.prev == "":
				if !errors.Is(rerr, os.ErrNotExist) {
					t.Errorf("failed Write left something at path: %q, %v", got, rerr)
				}
			case rerr != nil:
				t.Error(rerr)
			case string(got) != tc.want:
				t.Errorf("path holds %q, want %q", got, tc.want)
			}
		})
	}
}
