"""A plain scan of the program files (no Ray)."""

import pathlib
import re
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
KERNEL = ROOT / "text_to_rdf_ray" / "kernels" / "minhash.py"

#: a blake2b of 8 or 16 bytes read as ``.digest()``: an inline copy of
#: ``id63`` or ``digest128`` (a ``.hexdigest()`` tag is a name, not a
#: row identity, and is not this role).  ``(?:[^()]|\([^()]*\))`` spans
#: one level of nested parentheses in the call's arguments.
_INLINE_ID_OR_DIGEST = re.compile(
    r"blake2b\((?:[^()]|\([^()]*\))*?digest_size\s*=\s*(?:8|16)\b"
    r"(?:[^()]|\([^()]*\))*\)\s*\.digest\(\)")
#: the placement hash fed Python objects made from an Arrow column
_HASH_OF_PYLIST = re.compile(
    r"_hash_shingles\((?:[^()]|\([^()]*\))*\.to_pylist\(\)\s*\)")


def test_program_files_keep_one_hash_home_and_compile_clean():
    """Every ``.py`` under ``text_to_rdf_ray/`` and ``tools/``, plus
    ``__ray_entry__.py``:

    (a) outside ``kernels/minhash.py``, holds no inline 63-bit id or
        128-bit digest and feeds no ``to_pylist()`` into the placement
        hash, so each hash role keeps its one function;
    (b) compiles with warnings as errors (an invalid escape such as
        ``"\\s"`` in a plain docstring warns today and is an error in
        later Pythons)."""
    files = (sorted((ROOT / "text_to_rdf_ray").rglob("*.py"))
             + sorted((ROOT / "tools").rglob("*.py"))
             + [ROOT / "__ray_entry__.py"])
    found = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(ROOT)
        if path != KERNEL:
            for rx in (_INLINE_ID_OR_DIGEST, _HASH_OF_PYLIST):
                for m in rx.finditer(text):
                    line = text.count("\n", 0, m.start()) + 1
                    found.append(f"{rel}:{line}: {' '.join(m.group(0).split())}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(text, str(path), "exec")
            except (SyntaxError, Warning) as e:
                found.append(f"{rel}: {e}")
    assert not found, "\n".join(found)
