package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// fsyncHook, when non-nil, observes the durability-critical steps of an
// atomic checkpoint save in order ("sync-file", "rename", "sync-dir") — a
// test seam pinning that the parent directory is synced AFTER the rename,
// without which a crash between rename and the directory flush can lose the
// newest generation entirely.
var fsyncHook func(step, path string)

// syncDir fsyncs a directory so a just-renamed entry survives a crash. The
// rename itself only orders the file's data (synced before rename) against
// the directory entry; the entry reaches disk only when the directory inode
// does. Filesystems that cannot fsync a directory report EINVAL/ENOTSUP,
// which is tolerated — there is nothing more userspace can do there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// atomicWriteFile writes a file durably and atomically: the bytes land in
// path+".tmp", are fsynced, are renamed into place only once complete, and
// the parent directory is fsynced so the rename itself survives a crash. A
// crash at any point leaves either the previous file intact or a stray .tmp
// — never a torn file under the final name.
func atomicWriteFile(path string, data []byte) error {
	step := func(name, p string) {
		if fsyncHook != nil {
			fsyncHook(name, p)
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		step("sync-file", tmp)
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	step("rename", path)
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("core: sync checkpoint dir after rename: %w", err)
	}
	step("sync-dir", filepath.Dir(path))
	return nil
}
