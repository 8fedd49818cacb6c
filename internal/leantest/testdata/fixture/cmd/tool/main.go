package main

import (
	"errors"
	"fmt"

	"fixture/internal/a"
)

func main() {
	w := a.Widget{N: a.Hits()}
	fmt.Println(w)
	var err error = &a.Failure{}
	fmt.Println(errors.Is(err, errors.ErrUnsupported))
}
