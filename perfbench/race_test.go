//go:build race

package main

// raceEnabled is true under the race detector, which slows the program
// about tenfold: timing limits are missed and requests shed.
const raceEnabled = true
