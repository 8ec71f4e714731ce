"""The benchmark tracer's patch points exist in the package and come back intact."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_install_and_uninstall_restore_every_name(monkeypatch):
    """install() looks each traced name up in its owner's namespace, so a
    renamed or deleted name fails here; uninstall() must put back the very
    objects it replaced.  No workload runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    names = {(owner.__name__.rsplit(".", 1)[-1], attr) for owner, attr, _ in patched}
    assert {
        ("cartan", "kah_decompose"), ("cartan", "reconstruct"),
        ("wavefront", "kah_decompose"), ("wavefront", "fine_probe"),
        ("wavefront", "coarse_probe"), ("wavefront", "group_distance"),
        ("wavefront", "lipschitz_sweep"), ("wavefront", "scipy"),
        ("sector", "jacobi_eigh"), ("sector", "sym3_eigvals_batch"),
        ("sector", "sector_membership"), ("sector", "_classify_batch"),
        ("sector", "count_sector"), ("volume", "_classify_batch"),
        ("enumeration", "iter_form_batches"),
    } <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
