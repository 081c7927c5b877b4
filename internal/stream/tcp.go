package stream

import (
	"net"
	"sync"
)

// TCPEmitter serves an emitter's result stream over TCP: every accepted
// client is subscribed and receives all subsequent result tuples. It
// models the kernel-to-actuator channel.
type TCPEmitter struct {
	*Emitter
	ln net.Listener
	wg sync.WaitGroup
}

// ServeTCP starts a TCP emitter on addr.
func ServeTCP(addr string, e *Emitter) (*TCPEmitter, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPEmitter{Emitter: e, ln: ln}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPEmitter) Addr() string { return t.ln.Addr().String() }

func (t *TCPEmitter) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.SubscribeWriter(conn)
	}
}

// Close stops accepting new clients and shuts down the emitter.
func (t *TCPEmitter) Close() {
	t.ln.Close()
	t.wg.Wait()
	t.Stop()
}
