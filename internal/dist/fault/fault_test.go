package fault

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// pipe returns a connected TCP pair over loopback (net.Pipe lacks
// deadlines and buffers, so use the real stack like the runtime does).
func pipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, err = ln.Accept()
	}()
	client, derr := net.Dial("tcp", ln.Addr().String())
	wg.Wait()
	if derr != nil || err != nil {
		t.Fatalf("pipe: %v / %v", derr, err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestDialFailuresThenSuccess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	in := New(Schedule{FailDials: 2})
	for i := 0; i < 2; i++ {
		if _, err := in.Dial("tcp", ln.Addr().String()); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d: want ErrInjected, got %v", i, err)
		}
	}
	c, err := in.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("third dial should succeed: %v", err)
	}
	c.Close()
	if in.Dials() != 3 {
		t.Errorf("Dials() = %d, want 3", in.Dials())
	}
}

// TestKillOnArm checks that an armed schedule kills the connection at its
// first write after Arm, whatever the write count.
func TestKillOnArm(t *testing.T) {
	client, _ := pipe(t)
	in := New(Schedule{KillConn: 1})
	c := in.Wrap(client)
	for i := 0; i < 5; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d before Arm: %v", i, err)
		}
	}
	in.Arm()
	if _, err := c.Write([]byte{9}); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write after Arm: want ErrInjected, got %v", err)
	}
	if _, err := c.Write([]byte{9}); !errors.Is(err, ErrInjected) {
		t.Fatalf("killed conn write: want ErrInjected, got %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Errorf("read on killed conn: want ErrInjected, got %v", err)
	}
}

func TestSecondConnUnaffected(t *testing.T) {
	c1a, _ := pipe(t)
	c2a, c2b := pipe(t)
	in := New(Schedule{KillConn: 1})
	in.Arm()
	k := in.Wrap(c1a)
	ok := in.Wrap(c2a)
	if _, err := k.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("conn 1 should die immediately, got %v", err)
	}
	if _, err := ok.Write([]byte{2}); err != nil {
		t.Fatalf("conn 2 should live: %v", err)
	}
	buf := make([]byte, 1)
	c2b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2b.Read(buf); err != nil || buf[0] != 2 {
		t.Fatalf("conn 2 payload: %v %v", buf[0], err)
	}
}

func TestDeterministicJitter(t *testing.T) {
	seq := func() []time.Duration {
		in := New(Schedule{Seed: 42, Jitter: time.Millisecond})
		var out []time.Duration
		for i := 0; i < 5; i++ {
			out = append(out, in.delay())
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestListenerWraps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := New(Schedule{KillConn: 1})
	in.Arm()
	wln := in.Listener(ln)
	defer wln.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1)
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			c.Read(buf)
		}
	}()
	c, err := wln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn should be scheduled: %v", err)
	}
}

func TestDiskPlanDeterminism(t *testing.T) {
	run := func() ([]string, []error) {
		p := NewDiskPlan().KillAt(3).CorruptAt(2)
		var outs []string
		var errs []error
		for i := 0; i < 5; i++ {
			out, err := p.BeforeWrite("wal.log", []byte{1, 2, 3, 4})
			outs = append(outs, string(out))
			errs = append(errs, err)
		}
		return outs, errs
	}
	a, aerr := run()
	b, berr := run()
	for i := range a {
		if a[i] != b[i] || (aerr[i] == nil) != (berr[i] == nil) {
			t.Fatalf("non-deterministic at write %d", i+1)
		}
	}
	// Write 1 passes untouched, write 2 is corrupted, write 3 kills, 4-5
	// fail (dead).
	if a[0] != "\x01\x02\x03\x04" || aerr[0] != nil {
		t.Fatalf("write 1: %q %v", a[0], aerr[0])
	}
	if a[1] == "\x01\x02\x03\x04" || aerr[1] != nil {
		t.Fatalf("write 2 not corrupted: %q %v", a[1], aerr[1])
	}
	for i := 2; i < 5; i++ {
		if !errors.Is(aerr[i], ErrInjected) {
			t.Fatalf("write %d should fail: %v", i+1, aerr[i])
		}
	}
	if a[2] != "" {
		t.Fatalf("kill persisted bytes: %q", a[2])
	}
}

func TestDiskPlanTearAndSegments(t *testing.T) {
	p := NewDiskPlan().TearAt(2).CorruptSegment(1)
	out, err := p.BeforeWrite("seg-0001.seg", []byte{9, 9, 9, 9})
	if err != nil || string(out) == "\x09\x09\x09\x09" {
		t.Fatalf("segment write not corrupted: %q %v", out, err)
	}
	out, err = p.BeforeWrite("wal.log", []byte{1, 2, 3, 4})
	if !errors.Is(err, ErrInjected) || len(out) != 2 {
		t.Fatalf("tear: %q %v", out, err)
	}
	if p.Writes() != 2 || p.SegWrites() != 1 {
		t.Fatalf("counters: %d writes, %d seg", p.Writes(), p.SegWrites())
	}
}
