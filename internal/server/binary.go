package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	habf "repro"
	"repro/internal/wire"
)

// BinaryServer serves the internal/wire binary protocol on a raw TCP
// listener, dispatching into the same Server (and therefore the same
// coalescer, filter and metrics registry) that answers HTTP. One
// goroutine per connection; each connection's decoder reuses scratch
// buffers, so the steady-state request path allocates nothing.
type BinaryServer struct {
	s *Server

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewBinaryServer wraps s. Call Serve with a listener to start
// answering, and Shutdown to drain.
func NewBinaryServer(s *Server) *BinaryServer {
	return &BinaryServer{s: s, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Shutdown closes it. Like
// http.Server.Serve it blocks; a nil return means a clean shutdown.
func (b *BinaryServer) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		ln.Close()
		return errors.New("server: binary listener is shut down")
	}
	b.ln = ln
	b.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			b.mu.Lock()
			draining := b.draining
			b.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		b.mu.Lock()
		if b.draining {
			b.mu.Unlock()
			conn.Close()
			return nil
		}
		b.conns[conn] = struct{}{}
		b.wg.Add(1)
		b.mu.Unlock()
		go b.handle(conn)
	}
}

// Shutdown stops accepting, lets every in-flight request finish and its
// response flush, then closes the connections. Connections idle between
// frames are closed immediately; ones mid-request get until ctx expires
// before they are cut off.
func (b *BinaryServer) Shutdown(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	if b.ln != nil {
		b.ln.Close()
	}
	// Waking every blocked read with an immediate deadline would also
	// kill requests whose bytes are still arriving; give them a short
	// grace (within the drain budget) instead. Handlers that finish a
	// request re-check draining and exit without waiting for it.
	grace := time.Now().Add(1 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(grace) {
		grace = d
	}
	for conn := range b.conns {
		conn.SetReadDeadline(grace)
	}
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		for conn := range b.conns {
			conn.Close()
		}
		b.mu.Unlock()
		b.wg.Wait()
		return ctx.Err()
	}
}

// release drops conn from the tracked set.
func (b *BinaryServer) release(conn net.Conn) {
	b.mu.Lock()
	delete(b.conns, conn)
	b.mu.Unlock()
	conn.Close()
	b.wg.Done()
}

// drainingNow reports whether Shutdown has begun.
func (b *BinaryServer) drainingNow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// handle runs one connection's request loop.
func (b *BinaryServer) handle(conn net.Conn) {
	defer b.release(conn)
	b.s.binConns.Add(1)
	defer b.s.binConns.Add(-1)

	dec := wire.NewDecoder(conn)
	bw := bufio.NewWriterSize(conn, 1<<15)
	if err := dec.ReadHandshake(); err != nil {
		if !errors.Is(err, io.EOF) {
			b.s.mErrors.Inc()
		}
		return
	}

	out := make([]byte, 0, 64)
	// results is this connection's batch result buffer, regrown to the
	// largest batch seen and reused across requests so a steady stream
	// of OpContainsBatch frames allocates nothing.
	var results []bool
	var req wire.Request
	for {
		if err := dec.Next(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return // clean close between frames
			}
			if b.drainingNow() {
				return // drain deadline fired, not a client fault
			}
			// Every decode failure is a protocol violation: answer with an
			// error frame (best effort) and drop the connection — frame
			// boundaries can no longer be trusted.
			b.s.mErrors.Inc()
			out = wire.AppendErrorResp(out[:0], req.Op, req.ID, err.Error())
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			bw.Write(out)
			bw.Flush()
			return
		}

		start := time.Now()
		switch req.Op {
		case wire.OpContains:
			// Through the coalescer: concurrent binary connections share
			// ContainsBatch lock rounds exactly like HTTP callers do.
			present := b.s.co.Contains(req.Key)
			out = wire.AppendContainsResp(out[:0], req.ID, present)
			b.s.mBinContains.Inc()
			b.s.hBinContains.ObserveDuration(time.Since(start))
		case wire.OpContainsBatch:
			if cap(results) < len(req.Keys) {
				results = make([]bool, len(req.Keys))
			}
			results = results[:len(req.Keys)]
			b.s.Filter().ContainsBatchInto(results, req.Keys)
			out = wire.AppendBatchResp(out[:0], req.ID, results)
			b.s.mBinBatch.Inc()
			b.s.mBatchKeys.Add(uint64(len(req.Keys)))
			b.s.hBatchSize.Observe(float64(len(req.Keys)))
			b.s.hBinBatch.ObserveDuration(time.Since(start))
		case wire.OpAdd:
			// A follower's read-only filter rejects writes on the binary
			// path too. Error frames close the connection by protocol;
			// pointing at the primary in the message is the best redirect
			// this wire has.
			if err := b.s.Filter().Add(req.Key); err != nil {
				msg := err.Error()
				if errors.Is(err, habf.ErrReadOnly) && b.s.primary != "" {
					msg = "read-only follower: add at the primary " + b.s.primary
				}
				b.s.mErrors.Inc()
				out = wire.AppendErrorResp(out[:0], wire.OpAdd, req.ID, msg)
				conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				bw.Write(out)
				bw.Flush()
				return
			}
			out = wire.AppendOKResp(out[:0], wire.OpAdd, req.ID)
			b.s.mBinAdd.Inc()
		case wire.OpPing:
			out = wire.AppendOKResp(out[:0], wire.OpPing, req.ID)
			b.s.mBinPing.Inc()
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
		// Flush only when no further request is already buffered, so a
		// pipelining client gets its responses in one segment. Draining is
		// checked at the same boundary: requests already received are
		// answered before the connection closes.
		if dec.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			if b.drainingNow() {
				return
			}
		}
	}
}
