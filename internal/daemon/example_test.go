package daemon_test

import (
	"fmt"
	"log"

	"spreadnshare/internal/app"
	"spreadnshare/internal/daemon"
	"spreadnshare/internal/hw"
)

// Actuating one MPI job on a node: socket-balanced cpuset binding, a
// contiguous CAT mask, and the framework launch line.
func ExampleDaemon_Actuate() {
	cat, err := app.NewCatalog(hw.DefaultNodeSpec())
	if err != nil {
		log.Fatal(err)
	}
	mg, _ := cat.Lookup("MG")
	d := daemon.New(0, hw.DefaultNodeSpec())
	plan, err := d.Actuate(1, mg, 8, 4, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cores:", plan.Cores)
	fmt.Println("mask: ", plan.WayMask)
	fmt.Println("cmd:  ", plan.Command())
	// Output:
	// cores: 0-3,14-17
	// mask:  0x0000f
	// cmd:   mpirun -np 8 --bind-to cpu-list:ordered --cpu-set 0-3,14-17 ./mg
}
