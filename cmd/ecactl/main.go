// Command ecactl is the client for an ecad daemon:
//
//	ecactl [-s http://127.0.0.1:8080] register rule.xml
//	ecactl [-s http://127.0.0.1:8080] unregister rule-id
//	ecactl [-s http://127.0.0.1:8080] event event.xml
//	ecactl [-s http://127.0.0.1:8080] event -            (read from stdin)
//	ecactl [-s http://127.0.0.1:8080] book "John Doe" Munich Paris
//	ecactl [-s http://127.0.0.1:8080] rules
//	ecactl [-s http://127.0.0.1:8080] stats
//	ecactl [-s http://127.0.0.1:8080] cluster status
//	ecactl [-s http://127.0.0.1:8080] cluster top [-every 2s] [-n 0]
//
// cluster top renders a live per-node table from the daemon's federated
// /cluster/metrics view: events/sec admitted, the p95 admit→action
// latency over each sampling interval, and the admission slots held.
// -n bounds the number of refreshes (0 = until interrupted).
//
// The default endpoint is taken from the ECA_ENDPOINT environment
// variable when set; -s overrides it. Likewise -tenant scopes every
// command to one tenant's rule space on a multi-tenant daemon, defaulting
// to the ECA_TENANT environment variable (flag > env > daemon default).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/domain/travel"
)

// defaultEndpoint resolves the daemon base URL when -s is not given: the
// ECA_ENDPOINT environment variable if set, the local default otherwise.
func defaultEndpoint(getenv func(string) string) string {
	if ep := strings.TrimSpace(getenv("ECA_ENDPOINT")); ep != "" {
		return strings.TrimRight(ep, "/")
	}
	return "http://127.0.0.1:8080"
}

// defaultTenant resolves the tenant when -tenant is not given: the
// ECA_TENANT environment variable if set, otherwise empty — the daemon's
// default tenant.
func defaultTenant(getenv func(string) string) string {
	return strings.TrimSpace(getenv("ECA_TENANT"))
}

func main() {
	server := flag.String("s", defaultEndpoint(os.Getenv), "ecad base URL (default honours $ECA_ENDPOINT)")
	flag.StringVar(&tenantID, "tenant", defaultTenant(os.Getenv), "tenant whose rule space the command addresses (default honours $ECA_TENANT; empty = daemon default)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "register":
		if len(args) != 2 {
			usage()
		}
		err = postFile(*server+"/engine/rules", args[1])
	case "unregister":
		if len(args) != 2 {
			usage()
		}
		err = del(*server + "/engine/rules/" + url.PathEscape(args[1]))
	case "event":
		if len(args) != 2 {
			usage()
		}
		err = postFile(*server+"/events", args[1])
	case "book":
		if len(args) != 4 {
			usage()
		}
		err = post(*server+"/events", strings.NewReader(travel.Booking(args[1], args[2], args[3]).String()))
	case "stats":
		err = get(*server + "/engine/stats")
	case "rules":
		err = get(*server + "/engine/rules?format=ids")
	case "cluster":
		if len(args) < 2 {
			usage()
		}
		switch args[1] {
		case "status":
			if len(args) != 2 {
				usage()
			}
			err = get(*server + "/cluster/status")
		case "top":
			fs := flag.NewFlagSet("cluster top", flag.ExitOnError)
			every := fs.Duration("every", 2*time.Second, "sampling interval between /cluster/metrics scrapes")
			n := fs.Int("n", 0, "number of table refreshes (0 = until interrupted)")
			fs.Parse(args[2:])
			err = clusterTop(os.Stdout, *server, *every, *n)
		default:
			usage()
		}
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ecactl [-s URL] [-tenant ID] register <rule.xml> | unregister <rule-id> | event <file|-> | book <person> <from> <to> | rules | stats | cluster status | cluster top [-every 2s] [-n 0]`)
	os.Exit(2)
}
