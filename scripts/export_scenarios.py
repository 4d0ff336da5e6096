"""Write the bundled scenario corpus to scenarios/*.json.

Run from the repository root:  python3 scripts/export_scenarios.py
"""

import json
import pathlib

from clmech.corpus import bundled_corpus

OUT = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def main(out: pathlib.Path = OUT) -> None:
    out.mkdir(exist_ok=True)
    for sc in bundled_corpus():
        path = out / f"{sc.name}.json"
        path.write_text(json.dumps(sc.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
