package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"strconv"

	"repro/internal/keyval"
)

// Digest canonically hashes a completed job's output: the gathered pairs
// (when GatherOutput was set) followed by every reduce partition's final
// pairs, in partition order. Keys hash as little-endian uint32; values
// hash as the bytes appendValue produces — the same bytes as fmt's %v,
// deterministic for every value type the apps use (integers verbatim,
// floats in strconv's shortest round-trip form).
// Two Results digest equal iff keyval.Equal holds slot for slot.
func (r *Result[V]) Digest() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(r.PerRank)))
	h.Write(buf[:])
	digestPairs(h, &r.Output)
	for i := range r.PerRank {
		digestPairs(h, &r.PerRank[i])
	}
	return h.Sum64()
}

// digestPairs feeds one pair list into the hash with length framing, so
// pair boundaries cannot alias across lists: the pair count, then per pair
// the key, the value's byte length and the value's bytes.
func digestPairs[V any](h hash.Hash64, p *keyval.Pairs[V]) {
	var scratch [64]byte
	binary.LittleEndian.PutUint64(scratch[:8], uint64(p.Len()))
	h.Write(scratch[:8])
	for i, k := range p.Keys {
		buf := appendValue(scratch[:8], p.Vals[i])
		binary.LittleEndian.PutUint32(buf[:4], k)
		binary.LittleEndian.PutUint32(buf[4:8], uint32(len(buf)-8))
		h.Write(buf)
	}
}

// appendValue appends v to dst as fmt's %v prints it. Recorded arrival
// traces carry digests of these bytes, so they are a format: the value
// types the apps instantiate take strconv's allocation-free path, any
// other V goes through fmt itself, and TestAppendValueMatchesFmt pins the
// two to each other.
func appendValue[V any](dst []byte, v V) []byte {
	switch x := any(v).(type) {
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10)
	case uint64:
		return strconv.AppendUint(dst, x, 10)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return fmt.Appendf(dst, "%v", v)
}

// OutputDigest implements Runnable for a scheduled job.
func (s *Scheduled[V]) OutputDigest() (uint64, bool) {
	if s.Result == nil {
		return 0, false
	}
	return s.Result.Digest(), true
}

// RenderOutput implements Runnable for a scheduled job: one line
// per pair, gathered output first, then every reduce partition in
// partition order — the same canonical ordering Digest hashes. Values
// render through appendValue, exactly as they digest, so two jobs render
// identical text iff their digests match.
func (s *Scheduled[V]) RenderOutput(w io.Writer) error {
	if s.Result == nil {
		return fmt.Errorf("core: job %q has no result to render", s.Job.Config.Name)
	}
	bw := bufio.NewWriter(w)
	var scratch [64]byte
	writePairs := func(label string, p *keyval.Pairs[V]) {
		for i, k := range p.Keys {
			bw.WriteString(label)
			line := append(scratch[:0], ' ')
			line = strconv.AppendUint(line, uint64(k), 10)
			line = append(line, ' ')
			line = appendValue(line, p.Vals[i])
			bw.Write(append(line, '\n'))
		}
	}
	writePairs("out", &s.Result.Output)
	for i := range s.Result.PerRank {
		writePairs(fmt.Sprintf("r%d", i), &s.Result.PerRank[i])
	}
	return bw.Flush()
}
