// Command app calls lib.Used.
package main

import "fixture/internal/lib"

func main() { println(lib.Used()) }
