package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a frame is due. The runtime's own timers wake a
// goroutine up to a millisecond late whenever the process is idle (its
// poller waits in whole milliseconds), which would put that much sender
// lateness into every latency sample, and a nanosleep system call would
// hold a thread and its P while it waits. A timerfd registered with the
// runtime's poller does neither: the goroutine parks, and the kernel
// wakes the poller when the timer expires.
type pacer struct {
	f  *os.File
	fd uintptr // f's descriptor; File.Fd would put it back in blocking mode
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	// struct itimerspec {it_interval, it_value}; a zero interval is one-shot.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err := p.f.Read(buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
