"""li-qt: inference on robust dichotomic experiments and its quantum-form solutions.

Subpackages by concern:

- ``inference_core``   plausibility algebra, multinomial i-probs, evidence,
  Fisher information of dichotomic models
- ``sg_experiment``    Stern-Gerlach simulation, estimation, robust-solution fit
- ``eprb_experiment``  EPRB pair simulation, correlation reports, compliance tests
- ``separation``       Pauli-basis separation of frequency data into source
  (density operator) and instrument parts
- ``wave_dynamics``    detector bins, Fisher functionals,
  polar/wavefunction maps, Crank-Nicolson evolver
- ``io_cli``           persistence, run manifests, the ``li-qt`` command line
"""

__version__ = "0.1.0"
