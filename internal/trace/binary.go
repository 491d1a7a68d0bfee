package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// BinaryMagic identifies the compact binary trace format, version 1.
const BinaryMagic = "ICNT1\n"

// BinaryMeta is the header of a binary trace: the topology extents the
// requests were generated against (so a reader can validate each record and
// a simulator can size its arrays) and the request count.
type BinaryMeta struct {
	PoPs     int
	Leaves   int // leaves per access tree
	Objects  int
	Requests int64
}

func (m BinaryMeta) validate() error {
	if m.PoPs <= 0 || m.Leaves <= 0 || m.Objects <= 0 {
		return fmt.Errorf("trace: invalid binary meta (pops=%d leaves=%d objects=%d)", m.PoPs, m.Leaves, m.Objects)
	}
	if m.Requests < 0 {
		return fmt.Errorf("trace: negative request count %d", m.Requests)
	}
	return nil
}

// BinaryWriter encodes requests into the compact binary format: after the
// magic and a uvarint header (PoPs, Leaves, Objects, Requests), each record
// is uvarint PoP, uvarint Leaf, and the object id zigzag-varint
// delta-encoded against the previous record's. Zipf-skewed streams revisit
// popular (small) ids constantly, so deltas stay small and a record
// averages well under 10 bytes.
type BinaryWriter struct {
	w       *bufio.Writer
	meta    BinaryMeta
	prevObj int64
	count   int64
	buf     [3 * binary.MaxVarintLen64]byte
}

// NewBinaryWriter writes the header for meta to w and returns a writer for
// its records. meta.Requests > 0 declares the record count up front
// (validated at Flush); 0 leaves it open-ended, which readers handle by
// reading until EOF.
func NewBinaryWriter(w io.Writer, meta BinaryMeta) (*BinaryWriter, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	bw := &BinaryWriter{w: bufio.NewWriterSize(w, 64<<10), meta: meta}
	if _, err := bw.w.WriteString(BinaryMagic); err != nil {
		return nil, err
	}
	n := binary.PutUvarint(bw.buf[:], uint64(meta.PoPs))
	n += binary.PutUvarint(bw.buf[n:], uint64(meta.Leaves))
	if _, err := bw.w.Write(bw.buf[:n]); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(bw.buf[:], uint64(meta.Objects))
	n += binary.PutUvarint(bw.buf[n:], uint64(meta.Requests))
	if _, err := bw.w.Write(bw.buf[:n]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Write appends one request, validating it against the header extents.
func (bw *BinaryWriter) Write(q Request) error {
	if q.PoP < 0 || int(q.PoP) >= bw.meta.PoPs {
		return fmt.Errorf("trace: request PoP %d out of range [0, %d)", q.PoP, bw.meta.PoPs)
	}
	if q.Leaf < 0 || int(q.Leaf) >= bw.meta.Leaves {
		return fmt.Errorf("trace: request leaf %d out of range [0, %d)", q.Leaf, bw.meta.Leaves)
	}
	if q.Object < 0 || int(q.Object) >= bw.meta.Objects {
		return fmt.Errorf("trace: request object %d out of range [0, %d)", q.Object, bw.meta.Objects)
	}
	n := binary.PutUvarint(bw.buf[:], uint64(q.PoP))
	n += binary.PutUvarint(bw.buf[n:], uint64(q.Leaf))
	n += binary.PutVarint(bw.buf[n:], int64(q.Object)-bw.prevObj)
	bw.prevObj = int64(q.Object)
	bw.count++
	_, err := bw.w.Write(bw.buf[:n])
	return err
}

// Flush drains the buffer and verifies the record count matches the header
// (when the header declared one). It does not close the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if bw.meta.Requests > 0 && bw.count != bw.meta.Requests {
		return fmt.Errorf("trace: header declares %d requests, wrote %d", bw.meta.Requests, bw.count)
	}
	return bw.w.Flush()
}

// BinaryReader decodes a binary trace as a Stream.
type BinaryReader struct {
	r       *bufio.Reader
	meta    BinaryMeta
	prevObj int64
	read    int64
	err     error
	done    bool
}

// NewBinaryReader validates the magic, decodes the header, and returns a
// Stream over the records.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReaderSize(r, 64<<10)}
	magic := make([]byte, len(BinaryMagic))
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("trace: reading binary trace magic: %w", err)
	}
	if string(magic) != BinaryMagic {
		return nil, errors.New("trace: not a binary trace (bad magic)")
	}
	fields := [4]int64{}
	for i := range fields {
		v, err := binary.ReadUvarint(br.r)
		if err != nil {
			return nil, fmt.Errorf("trace: reading binary trace header: %w", err)
		}
		if v > 1<<62 {
			return nil, fmt.Errorf("trace: binary trace header field %d overflows", i)
		}
		fields[i] = int64(v)
	}
	if fields[0] > 1<<31 || fields[1] > 1<<31 || fields[2] > 1<<31 {
		return nil, errors.New("trace: binary trace extents exceed int32 range")
	}
	br.meta = BinaryMeta{
		PoPs:     int(fields[0]),
		Leaves:   int(fields[1]),
		Objects:  int(fields[2]),
		Requests: fields[3],
	}
	if err := br.meta.validate(); err != nil {
		return nil, err
	}
	return br, nil
}

// Meta returns the decoded header.
func (br *BinaryReader) Meta() BinaryMeta { return br.meta }

// Next decodes one record into q. It returns false at a clean end of
// stream (the declared record count, or EOF on a record boundary for
// open-ended traces) and on error; check Err to distinguish.
func (br *BinaryReader) Next(q *Request) bool {
	if br.done || br.err != nil {
		return false
	}
	if br.meta.Requests > 0 && br.read >= br.meta.Requests {
		br.done = true
		return false
	}
	pop, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.done = true
		if err == io.EOF {
			if br.meta.Requests > 0 {
				br.err = fmt.Errorf("trace: truncated binary trace: %d of %d records", br.read, br.meta.Requests)
			}
			// Open-ended trace: EOF on a record boundary is the end.
			return false
		}
		br.err = fmt.Errorf("trace: record %d: %w", br.read, err)
		return false
	}
	leaf, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.fail(err)
		return false
	}
	delta, err := binary.ReadVarint(br.r)
	if err != nil {
		br.fail(err)
		return false
	}
	obj := br.prevObj + delta
	if pop >= uint64(br.meta.PoPs) || leaf >= uint64(br.meta.Leaves) || obj < 0 || obj >= int64(br.meta.Objects) {
		br.done = true
		br.err = fmt.Errorf("trace: record %d out of range (pop=%d leaf=%d object=%d)", br.read, pop, leaf, obj)
		return false
	}
	br.prevObj = obj
	br.read++
	q.PoP = int32(pop)
	q.Leaf = int32(leaf)
	q.Object = int32(obj)
	return true
}

func (br *BinaryReader) fail(err error) {
	br.done = true
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	br.err = fmt.Errorf("trace: record %d: %w", br.read, err)
}

// Err reports the first decode error, or nil after a clean end of stream.
func (br *BinaryReader) Err() error { return br.err }

// WriteBinaryTrace encodes all of src to w in the binary format.
func WriteBinaryTrace(w io.Writer, meta BinaryMeta, src Stream) error {
	bw, err := NewBinaryWriter(w, meta)
	if err != nil {
		return err
	}
	var q Request
	for src.Next(&q) {
		if err := bw.Write(q); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinaryTrace decodes a full binary trace into memory: the materializing
// convenience for small traces and tests.
func ReadBinaryTrace(r io.Reader) (BinaryMeta, []Request, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return BinaryMeta{}, nil, err
	}
	reqs, err := Collect(br)
	if err != nil {
		return br.Meta(), nil, err
	}
	return br.Meta(), reqs, nil
}
