package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

func TestWriteReplacesAndLeavesNoStaging(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	for _, body := range []string{"first", "second"} {
		if err := Write(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read %q, %v; want %q", got, err, body)
		}
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"rec.json"}) {
		t.Fatalf("dir holds %v, want only rec.json", names)
	}
	if err := Write(filepath.Join(dir, "missing", "rec.json"), nil); err == nil {
		t.Fatal("Write into a missing directory must fail")
	}
}

func TestRemoveStaging(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.json", "a.json.123.tmp", "b.json.9.tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := RemoveStaging(dir); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"a.json", "notes.txt", "sub.tmp"}) {
		t.Fatalf("after RemoveStaging: %v", names)
	}
	if err := RemoveStaging(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("RemoveStaging of a missing directory must fail")
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

var errInjected = errors.New("injected fault")

// faultFS is a filesystem whose staging file and rename fail at one
// step, and which logs the steps Write takes.
func faultFS(fault string, log *[]string) fsys {
	return fsys{
		createTemp: func(dir, pattern string) (stagingFile, error) {
			f, err := os.CreateTemp(dir, pattern)
			if err != nil {
				return nil, err
			}
			return &faultFile{File: f, fault: fault, log: log}, nil
		},
		rename: func(oldpath, newpath string) error {
			*log = append(*log, "rename")
			if fault == "rename" {
				return errInjected
			}
			return os.Rename(oldpath, newpath)
		},
		syncDir: func(dir string) error {
			*log = append(*log, "syncdir")
			if fault == "syncdir" {
				return errInjected
			}
			return syncDir(dir)
		},
	}
}

type faultFile struct {
	*os.File
	fault string
	log   *[]string
}

// Write lands half the bytes on a "write" or "short" fault: the first
// reports ENOSPC, the second reports nothing, as a broken io.Writer
// might.
func (f *faultFile) Write(p []byte) (int, error) {
	*f.log = append(*f.log, "write")
	switch f.fault {
	case "write":
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	case "short":
		return f.File.Write(p[:len(p)/2])
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	*f.log = append(*f.log, "sync")
	if f.fault == "sync" {
		return errInjected
	}
	return f.File.Sync()
}

// Close closes the file on a "close" fault too, so the test leaks no
// descriptor, and reports the fault as a file system that loses
// buffered data at close might.
func (f *faultFile) Close() error {
	*f.log = append(*f.log, "close")
	err := f.File.Close()
	if f.fault == "close" {
		return errInjected
	}
	return err
}

// TestWriteSyncsBeforeAndAfterRename pins the order of a write: the
// staging file is fsynced before it is renamed, and the directory
// after.
func TestWriteSyncsBeforeAndAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	var log []string
	if err := faultFS("", &log).write(path, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "sync", "close", "rename", "syncdir"}; !slices.Equal(log, want) {
		t.Fatalf("steps %v, want %v", log, want)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "body" {
		t.Fatalf("read %q, %v", got, err)
	}
}

// TestWriteFaultsKeepOldFile injects a failed write, a short write, a
// failed Sync, a failed Close and a failed rename. Each must be
// reported, leave the destination's old bytes and leave no staging
// file. A failed directory fsync is reported too, after the new bytes
// are in place.
func TestWriteFaultsKeepOldFile(t *testing.T) {
	for _, tc := range []struct {
		fault string
		want  error
		body  string
	}{
		{"write", syscall.ENOSPC, "old"},
		{"short", io.ErrShortWrite, "old"},
		{"sync", errInjected, "old"},
		{"close", errInjected, "old"},
		{"rename", errInjected, "old"},
		{"syncdir", errInjected, "new bytes"},
	} {
		t.Run(tc.fault, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "rec.json")
			if err := Write(path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			var log []string
			if err := faultFS(tc.fault, &log).write(path, []byte("new bytes")); !errors.Is(err, tc.want) {
				t.Fatalf("write with a %s fault: %v, want %v", tc.fault, err, tc.want)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != tc.body {
				t.Fatalf("destination holds %q, %v; want %q", got, err, tc.body)
			}
			if names := dirNames(t, dir); !slices.Equal(names, []string{"rec.json"}) {
				t.Fatalf("dir holds %v, want only rec.json", names)
			}
		})
	}
}
