//go:build !unix

package rpc

import "net"

// readFrames is the frame-delivery loop of both connection ends; see
// frames_unix.go for the contract. Without a pollable descriptor to read
// from it is the buffered loop.
func readFrames(c net.Conn, onFrame func(payload []byte) bool, _ func() bool) error {
	return readFramesBuffered(c, onFrame)
}
