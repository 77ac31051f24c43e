package main

import (
	"io/fs"
	"path/filepath"

	"commongraph/internal/obs"
)

// Probe surface, layer store: the public Persist / OpenStore /
// OpenStoreWith / ApplyUpdates are called directly by the live-slide
// workload; here are the two obs-registry counters and the directory
// size that measure write and space amplification.

type storeCounters struct {
	segmentBytes, compactions int64
}

func probeStoreCounters() storeCounters {
	return storeCounters{segmentBytes: obs.SegmentBytes().Value(), compactions: obs.Compactions().Value()}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
