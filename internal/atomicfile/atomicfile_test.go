package atomicfile

import (
	"os"
	"path/filepath"
	"slices"
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
