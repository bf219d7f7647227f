// Command app is the fixture's only program: the gate's root.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Used())
	err := fmt.Errorf("wrapped: %w", lib.ErrCode{Code: 1})
	fmt.Println(errors.Is(err, lib.ErrCode{Code: 1}))
}
