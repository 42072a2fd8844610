//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd_create flags and clock.
const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// sleeper waits on a non-blocking timerfd through the runtime's network
// poller. time.Sleep wakes an idle process up to a millisecond late (the
// poller's wait has millisecond resolution), which would swamp sub-ms
// latencies measured from due times; a timerfd wakes the poller within
// tens of microseconds, and the waiting goroutine holds no P meanwhile.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) sleep(d time.Duration) error {
	// struct itimerspec{it_interval, it_value}: a one-shot relative timer.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
