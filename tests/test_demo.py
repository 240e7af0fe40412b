import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo_protocols.py"


def test_demo_protocols_agrees_with_ground_truth(capsys):
    spec = importlib.util.spec_from_file_location("demo_protocols", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--nodes", "8", "--steps", "10"])
    lines = capsys.readouterr().out.splitlines()
    honest = [line for line in lines if line.strip().startswith("honest prover")]
    agreement = [line for line in lines if line.strip().startswith("agreement:")]
    assert len(honest) == len(agreement) == 1
    assert "vs truth: ." in honest[0]
    assert "!" not in honest[0] + agreement[0]
