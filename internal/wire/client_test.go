package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServer answers each connection's requests with what answer
// appends for them, and hangs up after an answer marked last. It stands
// in for habfserved so the client's framing is tested against this
// package's own encoders.
func fakeServer(t *testing.T, answer func(out []byte, req *Request) (resp []byte, last bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Clients dialled later close first (cleanups run last in, first
	// out), which ends their connections' goroutines; then the listener
	// closes, which ends the accept loop.
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				d := NewDecoder(conn)
				if d.ReadHandshake() != nil {
					return
				}
				var req Request
				var out []byte
				for d.Next(&req) == nil {
					out, last := answer(out[:0], &req)
					if _, err := conn.Write(out); err != nil || last {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// present is the fake server's membership rule.
func present(key []byte) bool { return key[len(key)-1]%3 == 0 }

// answerAll answers every op correctly under the present rule.
func answerAll(out []byte, req *Request) ([]byte, bool) {
	switch req.Op {
	case OpContains:
		return AppendContainsResp(out, req.ID, present(req.Key)), false
	case OpContainsBatch:
		res := make([]bool, len(req.Keys))
		for i, k := range req.Keys {
			res[i] = present(k)
		}
		return AppendBatchResp(out, req.ID, res), false
	}
	return AppendOKResp(out, req.Op, req.ID), false
}

func dialFake(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// TestClientBatchSizes pins the client's unpacking of the presence bits
// at every byte boundary shape: fewer than 8, exactly 8, one over, and
// the protocol's largest batch, on one connection in a row.
func TestClientBatchSizes(t *testing.T) {
	c := dialFake(t, fakeServer(t, answerAll))
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, 8, 9, 256, MaxBatchKeys, 9} {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("k%d", i))
		}
		got, err := c.ContainsBatch(keys)
		if err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("batch of %d: %d results", n, len(got))
		}
		for i, k := range keys {
			if got[i] != present(k) {
				t.Fatalf("batch of %d: key %d answered %v", n, i, got[i])
			}
		}
		if ok, err := c.Contains(keys[0]); err != nil || ok != present(keys[0]) {
			t.Fatalf("contains after a batch of %d: %v, %v", n, ok, err)
		}
	}
}

// TestClientTruncatedBatchResponse pins that a batch response cut off
// inside its presence bits is an error, not a short or stale answer.
func TestClientTruncatedBatchResponse(t *testing.T) {
	addr := fakeServer(t, func(out []byte, req *Request) ([]byte, bool) {
		out = AppendBatchResp(out, req.ID, make([]bool, len(req.Keys)))
		return out[:len(out)-1], true
	})
	c := dialFake(t, addr)
	keys := make([][]byte, 17)
	for i := range keys {
		keys[i] = []byte{'k', byte(i)}
	}
	if got, err := c.ContainsBatch(keys); err == nil || !strings.Contains(err.Error(), "batch results") {
		t.Fatalf("truncated response answered %v, %v", got, err)
	}
}
