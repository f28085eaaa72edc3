package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorruptSnapshot is the typed error every snapshot-load failure wraps:
// undecodable input, truncation, out-of-order or duplicate samples,
// nameless or duplicate series, and CRC mismatches all surface as
// errors.Is(err, ErrCorruptSnapshot) so callers can distinguish bad input
// from I/O failures.
var ErrCorruptSnapshot = errors.New("tsdb: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Chunked snapshot format — the durable on-disk representation ingest
// checkpoints use. It writes the sealed chunk bytes verbatim, so a
// checkpoint is cheap (no decode) and loads are proportional to
// compressed size:
//
//	8B  magic "DIOCHK1\n"
//	uvarint series count; per series:
//	  uvarint label count; per label: uvarint len + bytes (name, value)
//	  uvarint chunk count; per chunk:
//	    uvarint sample count, zigzag-varint minT, zigzag-varint maxT,
//	    uvarint data len, data bytes
//	4B  IEEE CRC-32 (big-endian) of everything after the magic
const chunkedMagic = "DIOCHK1\n"

// SnapshotChunked serialises the store in the chunked format. Open head
// chunks are sealed into the snapshot (the in-memory head is untouched);
// on load appends simply start a fresh head chunk.
func (db *DB) SnapshotChunked(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, err := io.WriteString(w, chunkedMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeUvarint(uint64(len(db.keys))); err != nil {
		return err
	}
	for _, k := range db.keys {
		s := db.series[k]
		if err := writeUvarint(uint64(len(s.Labels))); err != nil {
			return err
		}
		for _, l := range s.Labels {
			if err := writeString(l.Name); err != nil {
				return err
			}
			if err := writeString(l.Value); err != nil {
				return err
			}
		}
		chunks := s.sealedChunks()
		if err := writeUvarint(uint64(len(chunks))); err != nil {
			return err
		}
		for _, c := range chunks {
			if err := writeUvarint(uint64(c.count)); err != nil {
				return err
			}
			if err := writeUvarint(zigzag(c.minT)); err != nil {
				return err
			}
			if err := writeUvarint(zigzag(c.maxT)); err != nil {
				return err
			}
			if err := writeUvarint(uint64(len(c.data))); err != nil {
				return err
			}
			if _, err := bw.Write(c.data); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// LoadChunkedSnapshot restores a store saved with SnapshotChunked. Every
// chunk is CRC-checked and fully decoded during load to validate sample
// counts and time-ordering; malformed input is rejected with an error
// wrapping ErrCorruptSnapshot.
func LoadChunkedSnapshot(r io.Reader) (*DB, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(chunkedMagic)+4 || string(raw[:len(chunkedMagic)]) != chunkedMagic {
		return nil, corruptf("bad chunked-snapshot header")
	}
	payload := raw[len(chunkedMagic) : len(raw)-4]
	want := binary.BigEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, corruptf("chunked-snapshot CRC mismatch (got %08x, want %08x)", got, want)
	}
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, corruptf("truncated varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	readString := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		if uint64(len(payload)-pos) < n {
			return "", corruptf("truncated string at offset %d", pos)
		}
		s := string(payload[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	nSeries, err := readUvarint()
	if err != nil {
		return nil, err
	}
	db := New()
	for si := uint64(0); si < nSeries; si++ {
		nLabels, err := readUvarint()
		if err != nil {
			return nil, err
		}
		ls := make(Labels, 0, nLabels)
		for li := uint64(0); li < nLabels; li++ {
			name, err := readString()
			if err != nil {
				return nil, err
			}
			value, err := readString()
			if err != nil {
				return nil, err
			}
			ls = append(ls, Label{Name: name, Value: value})
		}
		if ls.Name() == "" {
			return nil, corruptf("series without a metric name: %s", ls)
		}
		key := ls.Key()
		if _, dup := db.series[key]; dup {
			return nil, corruptf("duplicate series %s", ls)
		}
		nChunks, err := readUvarint()
		if err != nil {
			return nil, err
		}
		chunks := make([]chunk, 0, nChunks)
		total := 0
		prevT := int64(math.MinInt64)
		var lastV float64
		haveSample := false
		for ci := uint64(0); ci < nChunks; ci++ {
			count, err := readUvarint()
			if err != nil {
				return nil, err
			}
			zzMin, err := readUvarint()
			if err != nil {
				return nil, err
			}
			zzMax, err := readUvarint()
			if err != nil {
				return nil, err
			}
			dataLen, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if uint64(len(payload)-pos) < dataLen {
				return nil, corruptf("truncated chunk data at offset %d", pos)
			}
			data := make([]byte, dataLen)
			copy(data, payload[pos:pos+int(dataLen)])
			pos += int(dataLen)
			c := chunk{data: data, count: int(count), minT: unzigzag(zzMin), maxT: unzigzag(zzMax)}
			if c.count == 0 {
				return nil, corruptf("series %s has an empty chunk", ls)
			}
			// Decode the chunk to validate count and ordering against the
			// declared metadata.
			decoded, err := decodeChunk(c, nil)
			if err != nil {
				return nil, corruptf("series %s chunk %d: %v", ls, ci, err)
			}
			if len(decoded) != c.count {
				return nil, corruptf("series %s chunk %d decoded %d samples, declared %d", ls, ci, len(decoded), c.count)
			}
			for _, smp := range decoded {
				if haveSample && smp.T <= prevT {
					return nil, corruptf("series %s has out-of-order samples (t=%d after %d)", ls, smp.T, prevT)
				}
				prevT, lastV, haveSample = smp.T, smp.V, true
			}
			if decoded[0].T != c.minT || decoded[len(decoded)-1].T != c.maxT {
				return nil, corruptf("series %s chunk %d time bounds [%d,%d] disagree with samples [%d,%d]",
					ls, ci, c.minT, c.maxT, decoded[0].T, decoded[len(decoded)-1].T)
			}
			chunks = append(chunks, c)
			total += c.count
		}
		sr := db.addSeriesLocked(key, ls)
		if total > 0 {
			sr.restoreChunks(chunks, total, prevT, lastV)
			if first := chunks[0].minT; first < db.minT {
				db.minT = first
			}
			if prevT > db.maxT {
				db.maxT = prevT
			}
			db.samples += int64(total)
		}
	}
	if pos != len(payload) {
		return nil, corruptf("%d trailing bytes after the last series", len(payload)-pos)
	}
	return db, nil
}
