"""Score summaries with ROUGE and relation preservation.

Shows the clipped n-gram and LCS variants on a worked pair, then the
arcs of two dependency parses and their strict/lenient relation F-scores
with a threshold sweep: as the cosine threshold drops from 1.0 (exact
match) to 0.7, paraphrased relations start to count and F rises
monotonically.
"""

from treesum.metrics import (
    EmbeddingTable,
    parse_arcs,
    relation_f,
    rouge_l,
    rouge_n,
)


def main():
    candidate = "a man escaped".split()
    reference = "a man escaped from prison".split()
    for name, (p, r, f) in [
            ("ROUGE-1", rouge_n(candidate, reference, 1)),
            ("ROUGE-2", rouge_n(candidate, reference, 2)),
            ("ROUGE-L", rouge_l(candidate, reference))]:
        print(f"{name}: P={p:.3f} R={r:.3f} F={f:.3f}")
    print()

    # a parse is (words, heads): heads[i] is the 1-based position of the
    # head of words[i], 0 for the root; parse_arcs checks it and returns
    # its word-to-word arcs as 0-based (head, dependent) position arrays
    reference = ("a man escaped from prison".split(), [2, 3, 0, 5, 3])
    system = ("a person escaped from jail".split(), [2, 3, 0, 5, 3])
    for name, (words, heads) in [("reference", reference),
                                 ("system", system)]:
        arc_heads, arc_deps = parse_arcs(words, heads)
        print(f"{name + ' relations:':20}",
              [f"{words[d]}<-{words[h]}" for h, d in zip(arc_heads, arc_deps)])

    # embeddings place paraphrases close together
    table = EmbeddingTable(
        ["man", "person", "prison", "jail", "a", "escaped", "from"], [
            [1.00, 0.00, 0.0],
            [0.95, 0.31, 0.0],     # cos(man, person) ~ 0.95
            [0.00, 1.00, 0.0],
            [0.28, 0.96, 0.0],     # cos(prison, jail) ~ 0.96
            [0.00, 0.00, 1.0],
            [0.57, 0.57, 0.59],
            [0.40, 0.40, 0.82],
        ])

    print("\nstrict (sigma = 1.0):")
    p, r, f = relation_f(system, reference, table, sigma=1.0)
    print(f"  P={p:.3f} R={r:.3f} F={f:.3f}"
          "   only exact word pairs count")

    print("\nthreshold sweep (lenient matching):")
    print("  sigma\tP\tR\tF")
    for sigma in (1.0, 0.9, 0.8, 0.7):
        p, r, f = relation_f(system, reference, table, sigma)
        print(f"  {sigma}\t{p:.3f}\t{r:.3f}\t{f:.3f}")


if __name__ == "__main__":
    main()
