"""Tour of the netspec text format: parse, compile, evaluate, diagnose.

The same networks the other demos build in Python ship as ``.netspec``
files; this script loads one, evaluates its queries, shows how parse
errors and ill-spaced queries are reported with positions, and
round-trips the declarations through the canonical renderer, which writes
each one from its value: they parse back to equal values.
"""

from softbayes.cli import corpus_source
from softbayes.netspec import NetspecError, evaluate, load, parse, render


def main() -> None:
    source = corpus_source("disease.netspec")
    print("--- disease.netspec ---")
    print(source)

    env = load(source)
    print("queries:")
    for name in env.queries:
        result = evaluate(env, name)
        shown = result.value if result.kind != "channel" else "\n" + str(result.value)
        print(f"  {name} = {shown}")

    print("\nevaluating a bare declaration name echoes it:")
    print("  prior =", evaluate(env, "prior").value)

    broken = {
        "a state whose weights sum to 5/6":
            "space s = { a, b }\nstate bad : s = { a: 1/2, b: 1/3 }\n",
        "a Pearl update whose prior lives on the evidence space":
            source + "query bad = pearl(predicted, sens, pos)\n",
    }
    for what, text in broken.items():
        print(f"\nparsing {what}:")
        try:
            parse(text)
        except NetspecError as exc:
            for diagnostic in exc.diagnostics:
                print("  diagnostic:", diagnostic)

    decls = parse(source)
    print("\ndeclarations round-trip through the canonical rendering to equal values:",
          parse(render(decls)) == decls)


if __name__ == "__main__":
    main()
