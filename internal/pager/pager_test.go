package pager

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// buildSection writes a page section holding payload and returns its bytes.
func buildSection(t *testing.T, payload []byte, pageSize int) ([]byte, Params) {
	t.Helper()
	p := Params{PageSize: pageSize, NumPages: NumPagesFor(int64(len(payload)), pageSize)}
	var buf bytes.Buffer
	rest := payload
	err := WritePages(&buf, p, int64(len(payload)), func(dst []byte, max int) []byte {
		n := max
		if n > len(rest) {
			n = len(rest)
		}
		dst = append(dst, rest[:n]...)
		rest = rest[n:]
		return dst
	})
	if err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if got, want := int64(buf.Len()), p.SectionLen(); got != want {
		t.Fatalf("section length %d, want %d", got, want)
	}
	return buf.Bytes(), p
}

// reassemble reads every page through src and strips the final padding.
func reassemble(t *testing.T, src *FilePager, total int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < src.Params().NumPages; i++ {
		pg, err := src.ReadPage(i)
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", i, err)
		}
		out = append(out, pg...)
	}
	return out[:total]
}

func TestFilePagerRoundTrip(t *testing.T) {
	payload := make([]byte, 1000) // 1000 bytes over 64-byte pages: 15 full + 1 padded
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	section, p := buildSection(t, payload, 64)
	fp, err := NewFilePager(bytes.NewReader(section), 0, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reassemble(t, fp, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("payload round-trip mismatch")
	}
	if _, err := fp.ReadPage(p.NumPages); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("out-of-range page: err = %v, want ErrCorruptPage", err)
	}
	if _, err := fp.ReadPage(-1); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("negative page: err = %v, want ErrCorruptPage", err)
	}
}

func TestFilePagerDetectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 300)
	section, p := buildSection(t, payload, 128)

	flip := append([]byte(nil), section...)
	flip[140] ^= 0x01 // inside page 1's payload (stride 132: page 1 spans [132,260))
	fp, _ := NewFilePager(bytes.NewReader(flip), 0, p, nil)
	if _, err := fp.ReadPage(1); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("payload bit flip: err = %v, want ErrCorruptPage", err)
	}
	if _, err := fp.ReadPage(0); err != nil {
		t.Errorf("untouched page failed: %v", err)
	}

	trunc := section[:len(section)-3] // cuts the last page's trailer
	fp, _ = NewFilePager(bytes.NewReader(trunc), 0, p, nil)
	if _, err := fp.ReadPage(p.NumPages - 1); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("truncated trailer: err = %v, want ErrCorruptPage", err)
	}

	crc := append([]byte(nil), section...)
	crc[128] ^= 0xff // first byte of page 0's CRC trailer
	fp, _ = NewFilePager(bytes.NewReader(crc), 0, p, nil)
	if _, err := fp.ReadPage(0); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("flipped trailer byte: err = %v, want ErrCorruptPage", err)
	}
}

// rawPage is the identity decode hook: the cache holds the payload itself.
func rawPage(_ int, payload []byte) ([]byte, error) { return payload, nil }

func TestCacheLRUBudget(t *testing.T) {
	payload := make([]byte, 4*64) // exactly 4 pages
	for i := range payload {
		payload[i] = byte(i)
	}
	section, p := buildSection(t, payload, 64)
	fp, _ := NewFilePager(bytes.NewReader(section), 0, p, nil)
	c := NewCache(fp, 2*64, nil, rawPage) // room for 2 pages

	for _, i := range []int{0, 1, 0, 1} {
		if _, err := c.Page(i); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 || st.Evictions != 0 {
		t.Fatalf("warm pair: %+v", st)
	}

	// Page 2 evicts the LRU page (0); page 0 then misses again.
	if _, err := c.Page(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Page(0); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Evictions < 2 || st.Misses != 4 {
		t.Fatalf("after pressure: %+v", st)
	}
	if st.CachedBytes > c.Budget() {
		t.Fatalf("residency %d exceeds budget %d", st.CachedBytes, c.Budget())
	}
}

func TestCacheZeroBudgetStillServes(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4}, 64)
	section, p := buildSection(t, payload, 64)
	fp, _ := NewFilePager(bytes.NewReader(section), 0, p, nil)
	c := NewCache(fp, 0, nil, rawPage)
	for i := 0; i < p.NumPages; i++ {
		if _, err := c.Page(i); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.CachedPages != 0 {
		t.Fatalf("zero budget cached something: %+v", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	payload := make([]byte, 32*32)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	section, p := buildSection(t, payload, 32)
	fp, _ := NewFilePager(bytes.NewReader(section), 0, p, nil)
	c := NewCache(fp, 8*32, nil, rawPage)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (w*rep + rep) % p.NumPages
				pg, err := c.Page(i)
				if err != nil {
					t.Error(err)
					return
				}
				if pg[0] != payload[i*32] {
					t.Errorf("page %d content mismatch", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheDecodeErrorNotCached: a page whose decode hook fails returns
// the hook's error on every call — each call reads and decodes the page
// again — and never occupies the cache; healthy pages still cache.
func TestCacheDecodeErrorNotCached(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 3*64)
	section, p := buildSection(t, payload, 64)
	fp, _ := NewFilePager(bytes.NewReader(section), 0, p, nil)
	errBad := errors.New("bad page")
	decodes := 0
	c := NewCache(fp, 1<<20, nil, func(i int, payload []byte) ([]byte, error) {
		decodes++
		if i == 1 {
			return nil, errBad
		}
		return payload, nil
	})
	for rep := 0; rep < 3; rep++ {
		if _, err := c.Page(1); !errors.Is(err, errBad) {
			t.Fatalf("rep %d: err = %v, want the decode error", rep, err)
		}
	}
	if st := c.Stats(); st.CachedPages != 0 || st.Misses != 3 || st.PagesRead != 3 {
		t.Fatalf("failed decodes left state behind: %+v", st)
	}
	for rep := 0; rep < 2; rep++ {
		if _, err := c.Page(0); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.CachedPages != 1 || st.Hits != 1 || decodes != 4 {
		t.Fatalf("healthy page: %+v after %d decodes, want 1 cached page, 1 hit, 4 decodes", st, decodes)
	}
}
