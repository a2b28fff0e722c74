// Package atomicfile is the one staging writer behind the job journal,
// the job model files and the datastore snapshots. A write goes to a
// staging file next to its destination and is renamed into place, so
// a crash leaves the old file or the new one, never a torn file.
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
)

// stagingSuffix ends every staging file name.
const stagingSuffix = ".tmp"

// Write stages data in a temp file next to path and renames it into
// place. The temp name is unique per call (not "<path>.tmp"), so two
// concurrent writers of one path cannot steal each other's staging
// file; the loser's rename just lands second.
func Write(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+stagingSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()      // vetsuite:allow uncheckederr -- error path, Write failure already reported
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	return nil
}

// RemoveStaging deletes the staging files in dir that writes left
// behind when their process died between create and rename. Call it
// only while no Write into dir can be in flight, as recovery does.
func RemoveStaging(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), stagingSuffix) {
			os.Remove(filepath.Join(dir, e.Name())) // vetsuite:allow uncheckederr -- best-effort; the next recovery retries
		}
	}
	return nil
}
