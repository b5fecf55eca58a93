package comm

import "testing"

// TestBufPoolPresizesSmallClasses: the first miss on a small size class makes
// minSmallBufs buffers, so one more of them in flight than ever before is no
// allocation; a class that runs dry doubles; a class of large buffers grows
// one buffer per miss, as it always did.
func TestBufPoolPresizesSmallClasses(t *testing.T) {
	var p bufPool[byte]
	c := poolGetClass(5000) // the 8 KB class
	out := [][]byte{p.get(5000)}
	if len(out[0]) != 5000 || cap(out[0]) != 1<<c {
		t.Fatalf("get(5000): len %d cap %d, want 5000 and %d", len(out[0]), cap(out[0]), 1<<c)
	}
	if made, free := p.made[c], len(p.free[c]); made != minSmallBufs || free != minSmallBufs-1 {
		t.Fatalf("after the first miss: %d made, %d free, want %d and %d", made, free, minSmallBufs, minSmallBufs-1)
	}
	for i := 1; i < minSmallBufs; i++ {
		out = append(out, p.get(8000))
	}
	if made, free := p.made[c], len(p.free[c]); made != minSmallBufs || free != 0 {
		t.Fatalf("with every buffer out: %d made, %d free, want %d and 0", made, free, minSmallBufs)
	}
	out = append(out, p.get(4097)) // the class is dry: it doubles
	if made, free := p.made[c], len(p.free[c]); made != 2*minSmallBufs || free != minSmallBufs-1 {
		t.Fatalf("after the second miss: %d made, %d free, want %d and %d", made, free, 2*minSmallBufs, minSmallBufs-1)
	}
	for _, b := range out {
		p.put(b)
	}
	if free := len(p.free[c]); free != 2*minSmallBufs {
		t.Fatalf("with every buffer back: %d free, want %d", free, 2*minSmallBufs)
	}

	var f bufPool[float32]
	big := poolGetClass(spareMaxBytes/4 + 1) // the first float32 class above the bound
	f.get(spareMaxBytes/4 + 1)
	f.get(spareMaxBytes/4 + 1)
	if made, free := f.made[big], len(f.free[big]); made != 2 || free != 0 {
		t.Fatalf("large class after two misses: %d made, %d free, want 2 and 0", made, free)
	}
	small := poolGetClass(spareMaxBytes / 4) // the bound is in bytes, not elements
	f.get(spareMaxBytes / 4)
	if made := f.made[small]; made != minSmallBufs {
		t.Fatalf("the largest small float32 class made %d buffers on its first miss, want %d", made, minSmallBufs)
	}
}

// TestBufPoolBorrowsFromLargerClasses: a get whose class is dry takes the
// smallest idle buffer of a larger class before it allocates, and put files
// the loan back under its own class.
func TestBufPoolBorrowsFromLargerClasses(t *testing.T) {
	var p bufPool[float32]
	big, bigger := p.get(3000), p.get(9000) // classes 12 and 14
	p.put(bigger)
	p.put(big)
	madeBefore := p.made
	loan := p.get(600) // class 10: never made, so it borrows
	if cap(loan) != cap(big) || len(loan) != 600 {
		t.Fatalf("get(600) lent len %d cap %d, want the idle %d-element buffer", len(loan), cap(loan), cap(big))
	}
	if p.made != madeBefore {
		t.Fatal("a get with an idle larger buffer allocated")
	}
	p.put(loan)
	if c := poolGetClass(3000); len(p.free[c]) != minSmallBufs || len(p.free[poolGetClass(600)]) != 0 {
		t.Fatalf("the loan went back to the wrong class: %d free in class %d, %d in the borrower's",
			len(p.free[c]), c, len(p.free[poolGetClass(600)]))
	}
}
