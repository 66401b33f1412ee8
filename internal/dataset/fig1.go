// Package dataset provides the knowledge graphs and query workloads used by
// tests, examples and the experiment harness: the paper's Figure 1 toy
// graph, and synthetic stand-ins for the Wiki and IMDB knowledge bases,
// which the paper took from dumps this repository does not ship; the
// generators reproduce their shape (typed attribute schemas, Zipf-sampled
// entity text) at laptop scale, not their content.
package dataset

import "kbtable/internal/kg"

// Fig1Nodes names the interesting nodes of the Figure 1 graph.
type Fig1Nodes struct {
	SQLServer, RelDB, Microsoft, MSRevenue kg.NodeID
	Cpp, BillGates                         kg.NodeID
	OracleDB, ORDB, Oracle, OracleRevenue  kg.NodeID
	Book, Springer, SpringerRevenue        kg.NodeID
	Windows, Bing                          kg.NodeID
}

// Fig1 builds the knowledge graph of the paper's Figure 1(d): SQL Server
// and Oracle DB with their genres, developers and revenues, Microsoft's
// founder and products, and the "Handbook of Database Systems" book path
// that yields tree pattern P2.
func Fig1() (*kg.Graph, Fig1Nodes) {
	b := kg.NewBuilder()
	var n Fig1Nodes
	n.SQLServer = b.Entity("Software", "SQL Server")
	n.RelDB = b.Entity("Model", "Relational database")
	n.Microsoft = b.Entity("Company", "Microsoft")
	n.Cpp = b.Entity("Programming Language", "C++")
	n.BillGates = b.Entity("Person", "Bill Gates")
	n.OracleDB = b.Entity("Software", "Oracle DB")
	n.ORDB = b.Entity("Model", "O-R database")
	n.Oracle = b.Entity("Company", "Oracle Corp")
	// The title contains both "database" and "software" so that tree
	// pattern P2 of Figure 2(b) exists, as in the paper's figure.
	n.Book = b.Entity("Book", "Handbook of Database Software")
	n.Springer = b.Entity("Company", "Springer")
	n.Windows = b.Entity("Software", "Windows")
	n.Bing = b.Entity("Software", "Bing")

	b.Attr(n.SQLServer, "Genre", n.RelDB)
	b.Attr(n.SQLServer, "Developer", n.Microsoft)
	b.Attr(n.SQLServer, "Written in", n.Cpp)
	b.Attr(n.SQLServer, "Reference", n.Book)
	n.MSRevenue = b.TextAttr(n.Microsoft, "Revenue", "US$ 77 billion")
	b.Attr(n.Microsoft, "Founder", n.BillGates)
	b.Attr(n.Microsoft, "Products", n.Windows)
	b.Attr(n.Microsoft, "Products", n.Bing)
	b.Attr(n.OracleDB, "Genre", n.ORDB)
	b.Attr(n.OracleDB, "Developer", n.Oracle)
	b.Attr(n.OracleDB, "Written in", n.Cpp)
	n.OracleRevenue = b.TextAttr(n.Oracle, "Revenue", "US$ 37 billion")
	b.Attr(n.Book, "Publisher", n.Springer)
	n.SpringerRevenue = b.TextAttr(n.Springer, "Revenue", "US$ 1 billion")

	return b.MustFreeze(), n
}
