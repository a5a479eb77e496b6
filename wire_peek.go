//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package mycroft

import (
	"net"
	"syscall"
)

// peeker tells whether an idle connection is still open. The daemon closes
// idle connections after its idle timeout and a restart closes them at any
// time; with no reader parked on an idle connection, the only way to notice
// is to look before reusing it. The raw connection and the callback are
// built once per connection, so a check allocates nothing.
type peeker struct {
	raw  syscall.RawConn
	peek func(fd uintptr) bool
	buf  [1]byte
	n    int
	err  error
}

func (pk *peeker) init(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	pk.raw = raw
	pk.peek = func(fd uintptr) bool {
		pk.n, _, pk.err = syscall.Recvfrom(int(fd), pk.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
}

// alive reports whether the connection is open with nothing waiting on it:
// the peer has neither closed it (a zero-byte read) nor sent anything
// unasked, which an idle HTTP/1.1 connection never carries.
func (pk *peeker) alive() bool {
	if pk.raw == nil {
		return true
	}
	if err := pk.raw.Read(pk.peek); err != nil {
		return false
	}
	return pk.err == syscall.EAGAIN
}
