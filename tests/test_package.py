import os
import subprocess
import sys
import textwrap

import rwl1


def test_package_exports_the_four_sweep_types():
    assert rwl1.__all__ == ["DistributionSpec", "SolverConfig", "SweepSpec", "WeightScheme"]
    for name in rwl1.__all__:
        assert isinstance(getattr(rwl1, name), type)


def test_serial_sweep_never_loads_the_process_pool():
    script = textwrap.dedent("""
        import sys
        from rwl1 import DistributionSpec, SolverConfig, SweepSpec, WeightScheme
        from rwl1.bench import sweep
        spec = SweepSpec(dist=DistributionSpec.default("normal"), m=10, n=30, k_values=(2,),
                         schemes=((WeightScheme("cwb"), SolverConfig()),), trials=1, seed_base=42)
        print(sweep(spec).records[0].iterations > 0)
        print("concurrent.futures.process" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwl1.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["True", "False"]
