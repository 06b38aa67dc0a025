package index

// The on-disk corpus cache ("SCORP001"): a versioned, checksummed,
// memory-mappable serialization of an interned dictionary plus a block
// d-gap inverted index. The layout keeps everything the lookup kernels
// touch per-probe — the posting payloads — in one contiguous section that
// is used directly out of the mapped region, while the small per-token
// metadata (counts, skip entries) is decoded into heap slices at open.
//
//	header  64 B   magic, section lengths, per-section CRC32s
//	vocab          vocabCount × (uvarint len ‖ word bytes), sorted order
//	data           posting block payloads (block.go encoding)
//	meta           counts[vocab] ‖ skipIdx[vocab+1] ‖ skips[skipCount]×16 B
//
// All integers little-endian. Every section is CRC32-verified at open
// (and the header carries its own CRC), so the hot-path block decoder may
// treat a malformed block after open as a programming error rather than
// an I/O condition.
//
// The writer streams: it reserves the header, emits vocab, then accepts
// (token,record) pairs in ascending order — the k-way merge of the
// external sorter feeds it directly — flushing each 128-ID block as it
// fills, and finally writes meta and rewrites the header in place. Peak
// writer memory is one pending block plus the skip entries (~16 bytes per
// 128 postings), independent of corpus size.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"smartcrawl/internal/tokenize"
)

const (
	corpusMagic      = "SCORP001"
	corpusHeaderSize = 64
)

type corpusHeader struct {
	records  uint64
	vocab    uint64
	skips    uint64
	vocabLen uint64
	dataLen  uint64
	vocabCRC uint32
	dataCRC  uint32
	metaCRC  uint32
}

func (h *corpusHeader) marshal() [corpusHeaderSize]byte {
	var b [corpusHeaderSize]byte
	copy(b[0:8], corpusMagic)
	binary.LittleEndian.PutUint64(b[8:], h.records)
	binary.LittleEndian.PutUint64(b[16:], h.vocab)
	binary.LittleEndian.PutUint64(b[24:], h.skips)
	binary.LittleEndian.PutUint64(b[32:], h.vocabLen)
	binary.LittleEndian.PutUint64(b[40:], h.dataLen)
	binary.LittleEndian.PutUint32(b[48:], h.vocabCRC)
	binary.LittleEndian.PutUint32(b[52:], h.dataCRC)
	binary.LittleEndian.PutUint32(b[56:], h.metaCRC)
	binary.LittleEndian.PutUint32(b[60:], crc32.ChecksumIEEE(b[:60]))
	return b
}

func unmarshalCorpusHeader(b []byte) (corpusHeader, error) {
	var h corpusHeader
	if len(b) < corpusHeaderSize {
		return h, fmt.Errorf("index: corpus file shorter than its %d-byte header", corpusHeaderSize)
	}
	if string(b[0:8]) != corpusMagic {
		return h, fmt.Errorf("index: not a corpus cache (magic %q, want %q)", b[0:8], corpusMagic)
	}
	if got, want := crc32.ChecksumIEEE(b[:60]), binary.LittleEndian.Uint32(b[60:]); got != want {
		return h, fmt.Errorf("index: corpus header checksum mismatch (%08x vs %08x)", got, want)
	}
	h.records = binary.LittleEndian.Uint64(b[8:])
	h.vocab = binary.LittleEndian.Uint64(b[16:])
	h.skips = binary.LittleEndian.Uint64(b[24:])
	h.vocabLen = binary.LittleEndian.Uint64(b[32:])
	h.dataLen = binary.LittleEndian.Uint64(b[40:])
	h.vocabCRC = binary.LittleEndian.Uint32(b[48:])
	h.dataCRC = binary.LittleEndian.Uint32(b[52:])
	h.metaCRC = binary.LittleEndian.Uint32(b[56:])
	return h, nil
}

// CorpusWriter streams a corpus cache to disk. Pairs must arrive in
// strictly ascending (token, record) order; exact duplicates are merged.
type CorpusWriter struct {
	f       *os.File
	bw      *bufio.Writer
	hdr     corpusHeader
	counts  []uint32
	skipIdx []uint32
	skips   []blockSkip
	filled  int // skipIdx entries assigned so far

	curToken int64 // token currently accumulating; -1 before first Add
	lastRec  uint32
	block    []uint32
	scratch  []byte
	skScr    []blockSkip
	crc      uint32 // running data-section CRC
	done     bool
}

// NewCorpusWriter creates path (truncating) and writes the vocabulary of
// the frozen dictionary d. records is the corpus size recorded in the
// header and reported by OpenCorpus.
func NewCorpusWriter(path string, d *tokenize.Dict, records int) (*CorpusWriter, error) {
	if !d.Frozen() {
		return nil, fmt.Errorf("index: corpus writer needs a frozen dictionary")
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw := &CorpusWriter{
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<20),
		counts:   make([]uint32, d.Len()),
		skipIdx:  make([]uint32, d.Len()+1),
		curToken: -1,
		block:    make([]uint32, 0, PostingBlockSize),
	}
	cw.hdr.records = uint64(records)
	cw.hdr.vocab = uint64(d.Len())
	var zero [corpusHeaderSize]byte
	if _, err := cw.bw.Write(zero[:]); err != nil {
		return nil, cw.fail(err)
	}
	vcrc := uint32(0)
	var lbuf [binary.MaxVarintLen64]byte
	for id := 0; id < d.Len(); id++ {
		w := d.Word(uint32(id))
		n := binary.PutUvarint(lbuf[:], uint64(len(w)))
		if _, err := cw.bw.Write(lbuf[:n]); err != nil {
			return nil, cw.fail(err)
		}
		if _, err := cw.bw.WriteString(w); err != nil {
			return nil, cw.fail(err)
		}
		vcrc = crc32.Update(vcrc, crc32.IEEETable, lbuf[:n])
		vcrc = crc32.Update(vcrc, crc32.IEEETable, []byte(w))
		cw.hdr.vocabLen += uint64(n + len(w))
	}
	cw.hdr.vocabCRC = vcrc
	return cw, nil
}

func (cw *CorpusWriter) fail(err error) error {
	cw.done = true
	cw.f.Close()
	os.Remove(cw.f.Name())
	return err
}

// Add appends one (token, record) posting. Calls must be ordered: token
// non-decreasing, and records strictly ascending within a token (an equal
// pair is merged; a descending one is a caller bug and panics).
func (cw *CorpusWriter) Add(token, rec uint32) error {
	if cw.done {
		return fmt.Errorf("index: Add on a finished corpus writer")
	}
	if int64(token) != cw.curToken {
		if int64(token) < cw.curToken {
			panic(fmt.Sprintf("index: corpus writer tokens out of order (%d after %d)", token, cw.curToken))
		}
		if int(token) >= len(cw.counts) {
			return fmt.Errorf("index: token ID %d outside the %d-word dictionary", token, len(cw.counts))
		}
		if err := cw.flushBlock(); err != nil {
			return err
		}
		// Tokens between the previous one and this one have no postings:
		// their skipIdx entries all point at the current skip position.
		for cw.filled <= int(token) {
			cw.skipIdx[cw.filled] = uint32(len(cw.skips))
			cw.filled++
		}
		cw.curToken = int64(token)
	} else {
		if rec == cw.lastRec && (len(cw.block) > 0 || cw.counts[token] > 0) {
			return nil // merged duplicate from overlapping runs
		}
		if rec < cw.lastRec {
			panic(fmt.Sprintf("index: corpus writer records out of order (%d after %d)", rec, cw.lastRec))
		}
	}
	cw.block = append(cw.block, rec)
	cw.lastRec = rec
	cw.counts[token]++
	if len(cw.block) == PostingBlockSize {
		return cw.flushBlock()
	}
	return nil
}

func (cw *CorpusWriter) flushBlock() error {
	if len(cw.block) == 0 {
		return nil
	}
	cw.scratch, cw.skScr = appendPostingBlocks(cw.scratch[:0], cw.skScr[:0], cw.block)
	sk := cw.skScr[0]
	if cw.hdr.dataLen > maxRecordID {
		return cw.fail(fmt.Errorf("index: corpus data section exceeds 4 GiB (block offsets are uint32)"))
	}
	sk.off = uint32(cw.hdr.dataLen)
	if _, err := cw.bw.Write(cw.scratch); err != nil {
		return cw.fail(err)
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.scratch)
	cw.hdr.dataLen += uint64(len(cw.scratch))
	cw.skips = append(cw.skips, sk)
	cw.block = cw.block[:0]
	return nil
}

// Finish flushes the final block, writes the meta section, rewrites the
// header in place, and syncs the file. The writer is unusable afterwards.
func (cw *CorpusWriter) Finish() error {
	if cw.done {
		return fmt.Errorf("index: Finish on a finished corpus writer")
	}
	if err := cw.flushBlock(); err != nil {
		return err
	}
	for cw.filled < len(cw.skipIdx) {
		cw.skipIdx[cw.filled] = uint32(len(cw.skips))
		cw.filled++
	}
	cw.hdr.skips = uint64(len(cw.skips))
	cw.hdr.dataCRC = cw.crc

	mcrc := uint32(0)
	var b4 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(b4[:], v)
		mcrc = crc32.Update(mcrc, crc32.IEEETable, b4[:])
		_, err := cw.bw.Write(b4[:])
		return err
	}
	for _, v := range cw.counts {
		if err := put(v); err != nil {
			return cw.fail(err)
		}
	}
	for _, v := range cw.skipIdx {
		if err := put(v); err != nil {
			return cw.fail(err)
		}
	}
	var sb [blockSkipBytes]byte
	for _, sk := range cw.skips {
		binary.LittleEndian.PutUint32(sb[0:], sk.first)
		binary.LittleEndian.PutUint32(sb[4:], sk.last)
		binary.LittleEndian.PutUint32(sb[8:], sk.off)
		binary.LittleEndian.PutUint16(sb[12:], sk.n)
		binary.LittleEndian.PutUint16(sb[14:], sk.blen)
		mcrc = crc32.Update(mcrc, crc32.IEEETable, sb[:])
		if _, err := cw.bw.Write(sb[:]); err != nil {
			return cw.fail(err)
		}
	}
	cw.hdr.metaCRC = mcrc
	if err := cw.bw.Flush(); err != nil {
		return cw.fail(err)
	}
	hb := cw.hdr.marshal()
	if _, err := cw.f.WriteAt(hb[:], 0); err != nil {
		return cw.fail(err)
	}
	if err := cw.f.Sync(); err != nil {
		return cw.fail(err)
	}
	cw.done = true
	return cw.f.Close()
}

// WriteCorpus serializes an in-memory index and its dictionary as a
// corpus cache at path — the small-corpus and test-fixture path; large
// corpora stream through CorpusBuilder instead.
func WriteCorpus(path string, d *tokenize.Dict, inv *CompressedInvertedIDs) error {
	cw, err := NewCorpusWriter(path, d, inv.Size())
	if err != nil {
		return err
	}
	var buf []uint32
	for id := 0; id < d.Len(); id++ {
		for sk := inv.skipIdx[id]; sk < inv.skipIdx[id+1]; sk++ {
			buf = mustDecodePostingBlock(buf, inv.data, inv.skips[sk])
			for _, r := range buf {
				if err := cw.Add(uint32(id), r); err != nil {
					return err
				}
			}
		}
	}
	return cw.Finish()
}

// CorpusFile is an opened corpus cache: the dictionary and an index whose
// posting payloads read straight out of the mapped file region.
type CorpusFile struct {
	Dict *tokenize.Dict
	Inv  *CompressedInvertedIDs

	mapped  []byte
	unmap   func() error
	byMmap  bool
	records int
}

// OpenCorpus maps the corpus cache at path, verifying the header and all
// three section checksums before returning. On platforms without mmap
// support the file is read into memory instead (Mapped reports which).
func OpenCorpus(path string) (*CorpusFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("index: corpus cache %s too large to map", path)
	}
	mapped, unmap, byMmap, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("index: mapping %s: %w", path, err)
	}
	cf, err := parseCorpus(mapped)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("index: corpus cache %s: %w", path, err)
	}
	cf.mapped = mapped
	cf.unmap = unmap
	cf.byMmap = byMmap
	return cf, nil
}

func parseCorpus(b []byte) (*CorpusFile, error) {
	h, err := unmarshalCorpusHeader(b)
	if err != nil {
		return nil, err
	}
	metaLen := 4*h.vocab + 4*(h.vocab+1) + blockSkipBytes*h.skips
	want := corpusHeaderSize + h.vocabLen + h.dataLen + metaLen
	if uint64(len(b)) != want {
		return nil, fmt.Errorf("file is %d bytes, header implies %d", len(b), want)
	}
	vocabSec := b[corpusHeaderSize : corpusHeaderSize+h.vocabLen]
	dataSec := b[corpusHeaderSize+h.vocabLen : corpusHeaderSize+h.vocabLen+h.dataLen]
	metaSec := b[corpusHeaderSize+h.vocabLen+h.dataLen:]
	if got := crc32.ChecksumIEEE(vocabSec); got != h.vocabCRC {
		return nil, fmt.Errorf("vocab checksum mismatch (%08x vs %08x)", got, h.vocabCRC)
	}
	if got := crc32.ChecksumIEEE(dataSec); got != h.dataCRC {
		return nil, fmt.Errorf("data checksum mismatch (%08x vs %08x)", got, h.dataCRC)
	}
	if got := crc32.ChecksumIEEE(metaSec); got != h.metaCRC {
		return nil, fmt.Errorf("meta checksum mismatch (%08x vs %08x)", got, h.metaCRC)
	}

	words := make([]string, 0, h.vocab)
	rest := vocabSec
	for i := uint64(0); i < h.vocab; i++ {
		l, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)) < uint64(w)+l {
			return nil, fmt.Errorf("truncated vocab entry %d", i)
		}
		words = append(words, string(rest[w:uint64(w)+l]))
		rest = rest[uint64(w)+l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing vocab bytes", len(rest))
	}

	inv := &CompressedInvertedIDs{
		skipIdx: make([]uint32, h.vocab+1),
		counts:  make([]uint32, h.vocab),
		skips:   make([]blockSkip, h.skips),
		data:    dataSec,
		size:    int(h.records),
	}
	off := 0
	for i := range inv.counts {
		inv.counts[i] = binary.LittleEndian.Uint32(metaSec[off:])
		off += 4
	}
	for i := range inv.skipIdx {
		inv.skipIdx[i] = binary.LittleEndian.Uint32(metaSec[off:])
		off += 4
	}
	for i := range inv.skips {
		inv.skips[i] = blockSkip{
			first: binary.LittleEndian.Uint32(metaSec[off:]),
			last:  binary.LittleEndian.Uint32(metaSec[off+4:]),
			off:   binary.LittleEndian.Uint32(metaSec[off+8:]),
			n:     binary.LittleEndian.Uint16(metaSec[off+12:]),
			blen:  binary.LittleEndian.Uint16(metaSec[off+14:]),
		}
		off += blockSkipBytes
	}
	// Structural validation so lookups can trust the metadata blindly.
	prev := uint32(0)
	for i, v := range inv.skipIdx {
		if v < prev || uint64(v) > h.skips {
			return nil, fmt.Errorf("skip index entry %d out of order", i)
		}
		prev = v
	}
	if uint64(inv.skipIdx[h.vocab]) != h.skips {
		return nil, fmt.Errorf("skip index sentinel %d, want %d", inv.skipIdx[h.vocab], h.skips)
	}
	for i, sk := range inv.skips {
		if sk.n == 0 || sk.n > PostingBlockSize {
			return nil, fmt.Errorf("skip entry %d has %d ids", i, sk.n)
		}
		if int(sk.off)+int(sk.blen) > len(dataSec) {
			return nil, fmt.Errorf("skip entry %d payload outside data section", i)
		}
	}
	for id := uint64(0); id < h.vocab; id++ {
		n := 0
		for sk := inv.skipIdx[id]; sk < inv.skipIdx[id+1]; sk++ {
			n += int(inv.skips[sk].n)
		}
		if n != int(inv.counts[id]) {
			return nil, fmt.Errorf("token %d skip entries hold %d ids, counts say %d", id, n, inv.counts[id])
		}
	}

	return &CorpusFile{
		Dict:    tokenize.BuildDict(words),
		Inv:     inv,
		records: int(h.records),
	}, nil
}

// Records returns the corpus size recorded at write time.
func (cf *CorpusFile) Records() int { return cf.records }

// Mapped reports whether the postings are memory-mapped (vs read into
// heap on platforms without mmap).
func (cf *CorpusFile) Mapped() bool { return cf.byMmap }

// Close unmaps the file. The Dict and Inv must not be used afterwards.
func (cf *CorpusFile) Close() error {
	if cf.unmap == nil {
		return nil
	}
	u := cf.unmap
	cf.unmap = nil
	cf.Inv = nil
	return u()
}
