//go:build !linux

package main

import "runtime"

// fsType is only resolved on Linux; elsewhere it names the OS.
func fsType(string) (string, error) { return "unknown-" + runtime.GOOS, nil }
