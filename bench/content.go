package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// object is what the benchmark remembers about one published file: enough
// to check every response cheaply (length, both ends) and a sample of them
// fully (digest), without keeping the bodies in memory.
type object struct {
	label  string
	size   int
	head   [16]byte
	tail   [16]byte
	digest [sha256.Size]byte
}

// fillBody writes the deterministic body of object i under seed into buf.
// It is a splitmix64 stream keyed by (seed, i): the same seed gives the
// same bytes on every machine, and generating 64 MiB costs tens of
// milliseconds, so set-up time stays the daemon's and not the generator's.
func fillBody(buf []byte, seed int64, i int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1
	var word [8]byte
	for off := 0; off < len(buf); off += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(word[:], z)
		copy(buf[off:], word[:])
	}
}

// describe computes the check data for a body.
func describe(label string, body []byte) object {
	o := object{label: label, size: len(body), digest: sha256.Sum256(body)}
	copy(o.head[:], body)
	if len(body) >= len(o.tail) {
		copy(o.tail[:], body[len(body)-len(o.tail):])
	} else {
		copy(o.tail[:], body)
	}
	return o
}

// objectLabel is the file name and idICN label of object i. Lowercase
// letters and digits only, so the daemon's file-name-to-label mapping is
// the identity.
func objectLabel(i int) string { return fmt.Sprintf("o%05d", i) }

// generateContent describes n objects of size bytes each and, when dir is
// not empty, writes them there as files for `idicnd -content`.
func generateContent(dir string, seed int64, n, size int) ([]object, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	objs := make([]object, n)
	buf := make([]byte, size)
	for i := range objs {
		fillBody(buf, seed, i)
		objs[i] = describe(objectLabel(i), buf)
		if dir == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, objs[i].label), buf, 0o644); err != nil {
			return nil, err
		}
	}
	return objs, nil
}

// sampler yields the index of the next object to request. Samplers are the
// benchmark's own (math/rand over a table built here), never the repo's
// trace or zipfian generators, so a change to those cannot move the daemon
// workloads.
type sampler func() int

// popularity is a Zipf(alpha) law over n objects: a CDF to invert and a
// seeded permutation from rank to object, so popularity is not correlated
// with publication order. It is built once per workload and shared
// read-only by every connection's sampler.
type popularity struct {
	seed int64
	cdf  []float64
	perm []int
}

func newPopularity(seed int64, n int, alpha float64) *popularity {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &popularity{seed: seed, cdf: cdf, perm: rand.New(rand.NewSource(seed)).Perm(n)}
}

// sampler returns connection conn's own request stream under the law.
func (p *popularity) sampler(conn int) sampler {
	rng := rand.New(rand.NewSource(p.seed*1009 + int64(conn) + 1))
	return func() int {
		r := sort.SearchFloat64s(p.cdf, rng.Float64())
		if r >= len(p.cdf) {
			r = len(p.cdf) - 1
		}
		return p.perm[r]
	}
}

// scan walks objects first, first+stride, ... round and round: against an
// LRU smaller than the set, every request misses.
func scan(first, stride, n int) sampler {
	i := first % n
	return func() int {
		cur := i
		i = (i + stride) % n
		return cur
	}
}
