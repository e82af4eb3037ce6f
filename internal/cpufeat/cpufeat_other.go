//go:build !amd64

package cpufeat

func detect() bool { return false }
