//go:build amd64.v3

package core

func init() { builtForV3 = true }
