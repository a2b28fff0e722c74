// Package atomicfile is the one staging writer behind the job journal,
// the job model files and the datastore snapshots. A write goes to a
// staging file next to its destination, is fsynced, renamed into place,
// and the directory is fsynced after the rename, so a crash or a power
// cut leaves the old file or the new one, never a torn file.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// stagingSuffix ends every staging file name.
const stagingSuffix = ".tmp"

// stagingFile is what Write needs of a staging file.
type stagingFile interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// fsys is the filesystem under Write. Tests swap in one that fails a
// write, a Sync or the rename; everything else uses osFS.
type fsys struct {
	createTemp func(dir, pattern string) (stagingFile, error)
	rename     func(oldpath, newpath string) error
	syncDir    func(dir string) error
}

var osFS = fsys{
	createTemp: func(dir, pattern string) (stagingFile, error) { return os.CreateTemp(dir, pattern) },
	rename:     os.Rename,
	syncDir:    syncDir,
}

// Write stages data in a temp file next to path, fsyncs it, renames it
// into place and fsyncs the directory. The temp name is unique per call
// (not "<path>.tmp"), so two concurrent writers of one path cannot
// steal each other's staging file; the loser's rename just lands
// second. Any failure before the rename leaves path as it was and
// removes the staging file. A failed directory fsync is reported too,
// though path already holds data then.
func Write(path string, data []byte) error { return osFS.write(path, data) }

func (fs fsys) write(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fs.createTemp(dir, filepath.Base(path)+".*"+stagingSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	n, err := f.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()      // vetsuite:allow uncheckederr -- error path, the write or sync failure is reported
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := fs.rename(tmp, path); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	return fs.syncDir(dir)
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() // vetsuite:allow uncheckederr -- error path, the sync failure is reported
		return err
	}
	return d.Close()
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
