//! A GROUP BY report through the SQL session facade (Section 1 / 6.2 of the
//! paper): for every dealer, the range of possible total stock in their town
//! of operation, across all repairs.
//!
//! Run with: `cargo run --example dealers_report`

use rcqa::data::fact;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::Session;

fn main() {
    // Named-column catalog for the SQL front-end.
    let catalog = Catalog::new()
        .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
        .with_table(
            TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        );

    let session = Session::new(catalog);
    session
        .insert_all([
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Smith", "New York"),
            fact!("Dealers", "James", "Boston"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
            fact!("Stock", "Tesla Y", "Boston", 35),
            fact!("Stock", "Tesla Y", "New York", 95),
            fact!("Stock", "Tesla Y", "New York", 96),
        ])
        .unwrap();

    // The SQL query from the introduction of the paper.
    let sql = "SELECT D.Name, SUM(S.Qty) \
               FROM Dealers AS D, Stock AS S \
               WHERE D.Town = S.Town \
               GROUP BY D.Name";
    println!("SQL          : {sql}");

    // The pipeline the session executes, with the operator of each bound.
    println!("\nEXPLAIN:\n{}", session.explain(sql).unwrap());

    let outcome = session.execute(sql).unwrap();
    println!("AGGR[sjfBCQ] : {}", outcome.query);
    println!(
        "classified   : acyclic attack graph = {}",
        outcome.classification.attack_graph_acyclic
    );
    println!("\n{}", outcome.to_table());
    println!("Every value v in [glb, lub] is attained by SUM on some repair;");
    println!("values outside the interval are impossible under range semantics.");
}
