package server

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"bfbdd"
)

// putHandle binds b under the next free wire handle of sess's table, the
// handle a journaled mutation would have been stamped with. Executor
// goroutine only.
func putHandle(sess *session, b *bfbdd.BDD) uint64 {
	h := sess.tab.NextHandle + 1
	sess.tab.Set(h, b)
	return h
}

// latestSnapshot returns the path of id's newest committed snapshot in
// dir, or "" when none exists. Snapshots carry their WAL sequence in the
// file name, so tests cannot hard-code `<id>.snap` any more.
func latestSnapshot(dir, id string) string {
	c := &checkpointer{dir: dir}
	snaps := c.snapshotsFor(id)
	if len(snaps) == 0 {
		return ""
	}
	return snaps[len(snaps)-1].path
}

// copyDurabilityDir clones a checkpoint directory (snapshots, meta
// sidecars, and the wal/ subtree) into a fresh temp dir. Recovery tests
// boot their second in-process server over the clone: pointing it at the
// live server's directory would have the two servers sharing active WAL
// segment files — the clone is the process-crash equivalent of reading
// the dir after the writer is gone.
func copyDurabilityDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy durability dir: %v", err)
	}
	return dst
}
